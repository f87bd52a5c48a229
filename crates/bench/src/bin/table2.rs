//! Table II — AUC of every model variant (SVB / DTB / GPB, with and without
//! iWare-E) on each park dataset and test year, plus the paper's two
//! aggregate claims: iWare-E raises AUC on average, and GPB-iW is the most
//! consistently strong variant.
//!
//! ```bash
//! cargo run --release -p paws-bench --bin table2           # quick grid
//! cargo run --release -p paws-bench --bin table2 -- --full # full grid
//! ```

use paws_bench::{
    dry_season_dataset, park_model_config, quarterly_dataset, scenario, write_json, Scale,
};
use paws_core::{format_table, train, WeakLearnerKind};
use paws_data::{split_by_test_year, Dataset};
use serde::Serialize;

#[derive(Serialize)]
struct Table2Row {
    dataset: String,
    test_year: u32,
    model: String,
    auc: f64,
}

fn evaluate_dataset(
    park_name: &str,
    label: &str,
    dataset: &Dataset,
    test_years: &[u32],
    scale: Scale,
    rows: &mut Vec<Table2Row>,
) {
    for &year in test_years {
        let Some(split) = split_by_test_year(dataset, year, 3) else {
            eprintln!("  [skip] {label} {year}: split unavailable");
            continue;
        };
        for use_iware in [false, true] {
            for learner in WeakLearnerKind::all() {
                let config = {
                    let mut c = park_model_config(park_name, learner, use_iware, scale);
                    c.seed = 100 + year as u64;
                    c
                };
                let model = train(dataset, &split, &config).into_serving();
                let auc = model.auc_on(dataset, &split.test);
                println!("  {label:<10} {year}  {:<7} AUC = {auc:.3}", config.name());
                rows.push(Table2Row {
                    dataset: label.to_string(),
                    test_year: year,
                    model: config.name(),
                    auc,
                });
            }
        }
    }
}

fn main() {
    let scale = Scale::from_args();
    println!(
        "Table II: predictive performance (AUC) per model variant [{} scale]\n",
        if scale.is_full() { "full" } else { "quick" }
    );

    let mut rows: Vec<Table2Row> = Vec::new();
    let park_years: Vec<(&str, Vec<u32>)> = if scale.is_full() {
        vec![
            ("MFNP", vec![2014, 2015, 2016]),
            ("QENP", vec![2014, 2015, 2016]),
            ("SWS", vec![2016, 2017, 2018]),
        ]
    } else {
        vec![
            ("MFNP", vec![2016]),
            ("QENP", vec![2016]),
            ("SWS", vec![2017]),
        ]
    };

    for (park_name, years) in &park_years {
        let sc = scenario(park_name);
        let dataset = quarterly_dataset(&sc);
        evaluate_dataset(park_name, park_name, &dataset, years, scale, &mut rows);
        if *park_name == "SWS" {
            let dry = dry_season_dataset(&sc);
            evaluate_dataset(park_name, "SWS dry", &dry, years, scale, &mut rows);
        }
    }

    // Pivot: one row per (dataset, year), one column per model.
    let models = ["SVB", "DTB", "GPB", "SVB-iW", "DTB-iW", "GPB-iW"];
    let mut keys: Vec<(String, u32)> = rows
        .iter()
        .map(|r| (r.dataset.clone(), r.test_year))
        .collect();
    keys.dedup();
    let table: Vec<Vec<String>> = keys
        .iter()
        .map(|(ds, year)| {
            let mut row = vec![ds.clone(), year.to_string()];
            for m in &models {
                let auc = rows
                    .iter()
                    .find(|r| &r.dataset == ds && r.test_year == *year && r.model == *m)
                    .map(|r| format!("{:.3}", r.auc))
                    .unwrap_or_else(|| "-".to_string());
                row.push(auc);
            }
            row
        })
        .collect();
    println!();
    println!(
        "{}",
        format_table(
            &["Dataset", "Year", "SVB", "DTB", "GPB", "SVB-iW", "DTB-iW", "GPB-iW"],
            &table
        )
    );

    // Aggregate claims.
    let avg = |f: &dyn Fn(&Table2Row) -> bool| {
        let vals: Vec<f64> = rows.iter().filter(|r| f(r)).map(|r| r.auc).collect();
        paws_bench::mean(&vals)
    };
    let plain = avg(&|r: &Table2Row| !r.model.ends_with("-iW"));
    let iware = avg(&|r: &Table2Row| r.model.ends_with("-iW"));
    println!("Average AUC without iWare-E: {plain:.3}");
    println!("Average AUC with    iWare-E: {iware:.3}");
    println!(
        "iWare-E gain: {:+.3}   (paper: +0.100 on average)",
        iware - plain
    );

    // How often is GPB-iW the best variant?
    let mut gpb_best = 0usize;
    for (ds, year) in &keys {
        let best = models
            .iter()
            .filter_map(|m| {
                rows.iter()
                    .find(|r| &r.dataset == ds && r.test_year == *year && r.model == *m)
                    .map(|r| (m, r.auc))
            })
            .max_by(|a, b| a.1.total_cmp(&b.1));
        if let Some((name, _)) = best {
            if *name == "GPB-iW" {
                gpb_best += 1;
            }
        }
    }
    println!(
        "GPB-iW is the best variant in {}/{} dataset-year cases (paper: best in over half).",
        gpb_best,
        keys.len()
    );

    write_json("table2", &rows);
}
