//! Writes the inputs of one benchmark workload.
//!
//! ```text
//! gen --workload dynamic-table1|verifyd-mixed --seed N --out DIR
//! ```
//!
//! `DIR/corpus/` holds the compilation corpus and its `manifest.json`,
//! `DIR/table1/` the Table-1 pairs and their mutants, and
//! `DIR/answers.json` the known answer of every pair and chain. The last
//! line of standard output is a JSON object with the generation time.

use e2ebench_harness::{input_sets, table1_workload, write_cases, write_corpus, Expected};
use serde::Value;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next();
        match (flag.as_str(), value) {
            ("--workload", Some(v)) => workload = Some(v),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--out", Some(v)) => out = Some(PathBuf::from(v)),
            _ => {
                eprintln!("usage: gen --workload NAME --seed N --out DIR");
                std::process::exit(2);
            }
        }
    }
    let (Some(workload), Some(seed), Some(out)) = (workload, seed, out) else {
        eprintln!("usage: gen --workload NAME --seed N --out DIR");
        std::process::exit(2);
    };
    let Some(sets) = input_sets(&workload) else {
        eprintln!("unknown workload `{workload}`");
        std::process::exit(2);
    };
    let start = Instant::now();
    let mut pairs = Vec::new();
    let mut chains = Vec::new();
    let fail = |error: String| -> ! {
        eprintln!("error: {error}");
        std::process::exit(1);
    };
    if sets.corpus {
        let generated = write_corpus(&out.join("corpus")).unwrap_or_else(|e| fail(e));
        for pair in &generated.manifest.pairs {
            let name = pair.name.clone().expect("corpus pairs are named");
            pairs.push((name, Expected::Equivalent));
        }
        for chain in generated.manifest.chain_specs() {
            let name = chain.name.clone().expect("corpus chains are named");
            chains.push((name, Expected::Equivalent));
        }
    }
    if sets.table1 {
        let cases = table1_workload(seed);
        write_cases(&out.join("table1"), &cases).unwrap_or_else(|e| fail(e));
        pairs.extend(cases.iter().map(|c| (c.name.clone(), c.expected)));
    }
    let answers = |entries: Vec<(String, Expected)>| {
        Value::Object(
            entries
                .into_iter()
                .map(|(name, expected)| (name, Value::String(expected.as_str().to_string())))
                .collect(),
        )
    };
    let document = Value::Object(vec![
        ("pairs".to_string(), answers(pairs)),
        ("chains".to_string(), answers(chains)),
    ]);
    let path = out.join("answers.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&document).expect("plain JSON"),
    )
    .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", path.display())));
    println!("{{\"generate_s\": {}}}", start.elapsed().as_secs_f64());
}
