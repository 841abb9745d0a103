//! Traced in-process walk over one workload's generated inputs.
//!
//! ```text
//! traced --workload NAME --inputs DIR --spans FILE
//! ```
//!
//! For every pair it calls, each inside a span recorded by this program
//! (nothing inside the library is instrumented):
//!
//! * `circuit.parse` — `circuit::qasm::from_qasm` on both sides;
//! * `transform.reconstruct` and `transform.align`;
//! * every `qcec` check on its own: each functional and dynamic-functional
//!   strategy, `qcec.simulative` and `qcec.fixed_input` (a check that does
//!   not apply to the pair is timed to its rejection);
//! * `sim.extract` on the right side and `sim.statevector` on the left;
//! * `portfolio.race` — `portfolio::verify_portfolio` in its default
//!   configuration;
//! * `service.submit` — a `VerificationService` submit and wait.
//!
//! Chains go through `service.chain` (`submit_chain` and wait): the
//! compilation corpus's pipelines, and each unmutated Table-1 pair as a
//! one-step static-to-dynamic pipeline. Each single check runs under
//! [`CHECK_DEADLINE`] so one exponential check cannot stall the walk; a
//! check cut by it is timed up to the cut. Races and service requests run
//! under [`RACE_DEADLINE`] for the same reason. The service has one worker
//! per usable core. Every verdict of a race, a service submission and a
//! chain step is checked against the known answer.
//!
//! `compile.compile_s` times the corpus generation itself
//! ([`e2ebench_harness::write_corpus`], into a scratch directory under the
//! inputs that is removed afterwards).
//!
//! The end-to-end calls of every pair and chain run twice, with span
//! recording off and on, alternating which goes first; the ratio of the two
//! times is the tracing overhead. The last line of standard output is a JSON object with the
//! per-layer metrics and the per-pair coverage of wall time by layer self
//! time.

use e2ebench_harness::spans::Recorder;
use e2ebench_harness::{input_sets, write_corpus, Expected};
use portfolio::batch::{load_manifest, manifest_from_dir, PairSpec};
use portfolio::scheme::registry;
use portfolio::service::{
    ChainOutcome, Request, RequestOutcome, ServiceConfig, Source, VerificationService,
};
use portfolio::{ChainRequest, ChainSpec, ChainStepSpec, PortfolioConfig, PortfolioResult, Scheme};
use qcec::{Configuration, Equivalence, Strategy};
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Pair ids of chain roots start here, so span files keep pairs and
/// chains apart.
const CHAIN_ID_BASE: usize = 1_000_000;

/// Layer self time must cover at least this share of every pair's traced
/// wall time.
const MIN_COVERAGE: f64 = 0.9;

/// Deadline of every race and service request of the walk (per step for
/// chains), so a collapse shows as a `NoInformation` verdict instead of a
/// stalled run.
const RACE_DEADLINE: Duration = Duration::from_secs(5);

/// Deadline of every single check of the walk.
const CHECK_DEADLINE: Duration = Duration::from_millis(50);

struct Pair {
    name: String,
    left: PathBuf,
    right: PathBuf,
    qubits: Option<usize>,
    expected: Expected,
}

struct Args {
    workload: String,
    inputs: PathBuf,
    spans: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        map.insert(flag, value);
    }
    let mut take = |flag: &str| map.remove(flag).ok_or_else(|| format!("missing {flag}"));
    Ok(Args {
        workload: take("--workload")?,
        inputs: PathBuf::from(take("--inputs")?),
        spans: PathBuf::from(take("--spans")?),
    })
}

fn load_answers(dir: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(dir.join("answers.json")).map_err(|e| e.to_string())?;
    serde_json::from_str(&text).map_err(|e| e.to_string())
}

fn expected(answers: &Value, section: &str, name: &str) -> Result<Expected, String> {
    match answers
        .get(section)
        .and_then(|s| s.get(name))
        .and_then(Value::as_str)
    {
        Some("Equivalent") => Ok(Expected::Equivalent),
        Some("NotEquivalent") => Ok(Expected::NotEquivalent),
        _ => Err(format!("no known answer for {section} `{name}`")),
    }
}

fn pair_from_spec(spec: &PairSpec, answers: &Value) -> Result<Pair, String> {
    let name = spec.name.clone().ok_or("unnamed pair")?;
    Ok(Pair {
        expected: expected(answers, "pairs", &name)?,
        name,
        left: PathBuf::from(&spec.left),
        right: PathBuf::from(&spec.right),
        qubits: spec.qubits,
    })
}

/// A workload's pairs and its chains with their known answers.
type Inputs = (Vec<Pair>, Vec<(ChainSpec, Expected)>);

/// The workload's pairs (endpoint pairs, chain steps as adjacent pairs,
/// Table-1 pairs) and its chains with their known answers.
fn load_inputs(args: &Args) -> Result<Inputs, String> {
    let answers = load_answers(&args.inputs)?;
    let sets = input_sets(&args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let mut pairs = Vec::new();
    let mut chains = Vec::new();
    if sets.corpus {
        let manifest = load_manifest(&args.inputs.join("corpus").join("manifest.json"))
            .map_err(|e| e.to_string())?;
        for spec in &manifest.pairs {
            pairs.push(pair_from_spec(spec, &answers)?);
        }
        for chain in manifest.chain_specs() {
            let name = chain.name.clone().ok_or("unnamed chain")?;
            let answer = expected(&answers, "chains", &name)?;
            for (index, step) in chain.steps.windows(2).enumerate() {
                pairs.push(Pair {
                    name: format!("{name}:step{}", index + 1),
                    left: PathBuf::from(&step[0].path),
                    right: PathBuf::from(&step[1].path),
                    qubits: chain.qubits,
                    expected: answer,
                });
            }
            chains.push((chain.clone(), answer));
        }
    }
    if sets.table1 {
        let manifest = manifest_from_dir(&args.inputs.join("table1")).map_err(|e| e.to_string())?;
        for spec in &manifest.pairs {
            let pair = pair_from_spec(spec, &answers)?;
            // The dynamic realisation is a compilation of the static
            // circuit, so each unmutated Table-1 pair also runs through
            // the chain layer as a one-step pipeline.
            if pair.expected == Expected::Equivalent {
                let spec = ChainSpec {
                    name: Some(pair.name.clone()),
                    qubits: None,
                    steps: vec![
                        ChainStepSpec {
                            pass: Some("original".to_string()),
                            path: spec.left.clone(),
                        },
                        ChainStepSpec {
                            pass: Some("dynamic".to_string()),
                            path: spec.right.clone(),
                        },
                    ],
                };
                chains.push((spec, Expected::Equivalent));
            }
            pairs.push(pair);
        }
    }
    Ok((pairs, chains))
}

/// Per-layer accumulators: sums and sample counts by metric name.
#[derive(Default)]
struct Layers {
    sum: BTreeMap<String, f64>,
    count: BTreeMap<String, f64>,
}

impl Layers {
    fn add(&mut self, name: &str, value: f64) {
        *self.sum.entry(name.to_string()).or_default() += value;
        *self.count.entry(name.to_string()).or_default() += 1.0;
    }

    fn total(&self, name: &str) -> f64 {
        self.sum.get(name).copied().unwrap_or(0.0)
    }

    fn mean(&self, name: &str) -> f64 {
        match self.count.get(name) {
            Some(&n) if n > 0.0 => self.total(name) / n,
            _ => 0.0,
        }
    }

    fn ratio(&self, numerator: &str, denominator: &str) -> f64 {
        let d = self.total(denominator);
        if d > 0.0 {
            self.total(numerator) / d
        } else {
            0.0
        }
    }
}

fn strategy_label(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::Reference => "reference",
        Strategy::OneToOne => "one-to-one",
        Strategy::Proportional => "proportional",
        Strategy::Aligned => "aligned",
    }
}

fn conclusive(verdict: Equivalence) -> bool {
    matches!(
        verdict,
        Equivalence::Equivalent
            | Equivalence::EquivalentUpToGlobalPhase
            | Equivalence::NotEquivalent
    )
}

type ParsedPair = (
    circuit::QuantumCircuit,
    circuit::QuantumCircuit,
    Option<f64>,
);

struct Walk<'a> {
    service: &'a VerificationService,
    portfolio: PortfolioConfig,
    functional: Vec<Strategy>,
    dynamic_functional: Vec<Strategy>,
    layers: Layers,
    /// Layer metrics are accumulated only while the recorder is on.
    recording: bool,
    /// End-to-end verdicts checked, traced and untraced calls alike.
    verdicts: usize,
    /// The checked verdicts that differ from the known answer, by layer
    /// and pair name.
    wrong: Vec<String>,
}

impl Walk<'_> {
    fn budget(&self) -> dd::Budget {
        dd::Budget::unlimited().with_deadline(CHECK_DEADLINE)
    }

    /// Checks one end-to-end verdict against the known answer; a wrong one
    /// is listed and, while recording, counted as `{layer}.wrong_verdicts`.
    fn check(&mut self, layer: &str, name: &str, expected: Expected, verdict: Option<Equivalence>) {
        self.verdicts += 1;
        let right = verdict.is_some_and(|v| expected.accepts(v));
        if !right {
            let got = verdict.map_or("no verdict".to_string(), |v| format!("{v:?}"));
            self.wrong.push(format!(
                "{layer}: {name}: expected {}, got {got}",
                expected.as_str()
            ));
        }
        self.record(
            &format!("{layer}.wrong_verdicts"),
            f64::from(u8::from(!right)),
        );
    }

    fn record(&mut self, name: &str, value: f64) {
        if self.recording {
            self.layers.add(name, value);
        }
    }

    /// Times one single check. With `competes` (the portfolio would launch
    /// the scheme on this pair), a conclusive verdict competes for the
    /// pair's best single-scheme time.
    fn single(
        &mut self,
        rec: &mut Recorder,
        id: usize,
        span: &str,
        competes: bool,
        best: &mut Option<f64>,
        check: impl FnOnce(&dd::Budget) -> Option<Equivalence>,
    ) {
        let budget = self.budget();
        let start = Instant::now();
        let verdict = rec.span(span, id, |_| check(&budget));
        let seconds = start.elapsed().as_secs_f64();
        self.record(&format!("{span}_s"), seconds);
        if competes && verdict.is_some_and(conclusive) {
            *best = Some(best.map_or(seconds, |b: f64| b.min(seconds)));
        }
    }

    /// Parses one pair and calls every layer's entry points on it: the
    /// transform, every `qcec` check and both `sim` simulations. A check
    /// that does not apply to the pair (a functional check of a dynamic
    /// circuit) is timed to its rejection.
    fn pair_checks(
        &mut self,
        rec: &mut Recorder,
        id: usize,
        pair: &Pair,
    ) -> Result<ParsedPair, String> {
        let start = Instant::now();
        let (left, right) = rec.span("circuit.parse", id, |_| {
            let parse = |path: &Path| -> Result<circuit::QuantumCircuit, String> {
                let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
                circuit::qasm::from_qasm(&text).map_err(|e| format!("{}: {e}", path.display()))
            };
            Ok::<_, String>((parse(&pair.left)?, parse(&pair.right)?))
        })?;
        self.record("circuit.parse_s", start.elapsed().as_secs_f64());
        let applicable = portfolio::applicable_schemes(&left, &right);
        let mut best = None;
        let config = |strategy| Configuration {
            strategy,
            ..Configuration::default()
        };

        // A circuit can be out of the reconstruction's reach (a mutant with
        // a gate after a measurement and no reset in between); that is a
        // rejection by the transform layer, counted, not a walk error.
        let start = Instant::now();
        let reconstructed = rec.span("transform.reconstruct", id, |_| {
            transform::reconstruct_unitary(&left)
                .and_then(|l| Ok((l, transform::reconstruct_unitary(&right)?)))
        });
        self.record("transform.reconstruct_s", start.elapsed().as_secs_f64());
        match reconstructed {
            Ok((left_rec, right_rec)) => {
                self.record(
                    "transform.reconstructed_ops",
                    right_rec.circuit.len() as f64,
                );
                let start = Instant::now();
                let aligned = rec.span("transform.align", id, |_| {
                    transform::align_to_reference(&left_rec.circuit, &right_rec.circuit)
                });
                self.record("transform.align_s", start.elapsed().as_secs_f64());
                self.record(
                    "transform.rejections",
                    f64::from(u8::from(aligned.is_err())),
                );
            }
            Err(_) => self.record("transform.rejections", 1.0),
        }

        for strategy in self.functional.clone() {
            let span = format!("qcec.functional.{}", strategy_label(strategy));
            let mut peak = None;
            let competes = applicable.contains(&Scheme::Functional(strategy));
            self.single(rec, id, &span, competes, &mut best, |budget| {
                qcec::check_functional_equivalence_with(&left, &right, &config(strategy), budget)
                    .ok()
                    .map(|r| {
                        peak = Some(r.peak_diagram_size);
                        r.equivalence
                    })
            });
            // A check cut by the deadline, or rejected, reports no peak.
            if let Some(peak) = peak {
                self.record("qcec.functional_peak_nodes", peak as f64);
            }
        }
        self.single(
            rec,
            id,
            "qcec.simulative",
            applicable.contains(&Scheme::Simulative),
            &mut best,
            |budget| {
                qcec::check_simulative_equivalence_with(
                    &left,
                    &right,
                    &Configuration::default(),
                    budget,
                )
                .ok()
                .map(|r| r.equivalence)
            },
        );
        for strategy in self.dynamic_functional.clone() {
            let span = format!("qcec.dynamic_functional.{}", strategy_label(strategy));
            let competes = applicable.contains(&Scheme::DynamicFunctional(strategy));
            self.single(rec, id, &span, competes, &mut best, |budget| {
                qcec::verify_dynamic_functional_with(&left, &right, &config(strategy), budget)
                    .ok()
                    .map(|r| r.equivalence)
            });
        }
        let extraction = self.portfolio.extraction;
        self.single(
            rec,
            id,
            "qcec.fixed_input",
            applicable.contains(&Scheme::FixedInput),
            &mut best,
            |budget| {
                qcec::verify_fixed_input_with(
                    &left,
                    &right,
                    &Configuration::default(),
                    &extraction,
                    budget,
                )
                .ok()
                .map(|r| r.equivalence)
            },
        );
        let budget = self.budget();
        let start = Instant::now();
        let leaves = rec.span("sim.extract", id, |_| {
            sim::extract_distribution_budgeted(&right, None, &extraction, &budget)
                .map_or(0, |r| r.leaves)
        });
        self.record("sim.extract_s", start.elapsed().as_secs_f64());
        self.record("sim.extract_leaves", leaves as f64);
        let start = Instant::now();
        rec.span("sim.statevector", id, |_| {
            let mut simulator =
                sim::StateVectorSimulator::with_budget(left.num_qubits(), self.budget());
            simulator
                .run(&left)
                .map(|()| simulator.outcome_distribution())
                .ok()
        });
        self.record("sim.statevector_s", start.elapsed().as_secs_f64());

        Ok((left, right, best))
    }

    /// The end-to-end calls of one pair: a default portfolio race and a
    /// service submission.
    fn pair_e2e(
        &self,
        rec: &mut Recorder,
        id: usize,
        pair: &Pair,
        parsed: &ParsedPair,
    ) -> Result<(PortfolioResult, RequestOutcome, f64), String> {
        let (left, right, _) = parsed;
        let start = Instant::now();
        let result = rec.span("portfolio.race", id, |_| {
            portfolio::verify_portfolio(left, right, &self.portfolio)
        });
        let race_s = start.elapsed().as_secs_f64();
        let request = Request {
            name: Some(pair.name.clone()),
            left: Source::Path(pair.left.clone()),
            right: Source::Path(pair.right.clone()),
            deadline: Some(RACE_DEADLINE),
            node_limit: None,
            width_hint: pair.qubits,
        };
        let outcome = rec.span("service.submit", id, |_| {
            self.service
                .submit(request)
                .map(|handle| handle.wait())
                .map_err(|e| e.to_string())
        })?;
        Ok((result, outcome, race_s))
    }

    fn record_pair(
        &mut self,
        pair: &Pair,
        best: Option<f64>,
        (result, outcome, race_s): &(PortfolioResult, RequestOutcome, f64),
        delta: &obs::Snapshot,
    ) {
        self.check("portfolio", &pair.name, pair.expected, Some(result.verdict));
        self.check(
            "service",
            &pair.name,
            pair.expected,
            Some(outcome.report.verdict),
        );
        if !self.recording {
            return;
        }
        let layers = &mut self.layers;
        layers.add("portfolio.race_s", *race_s);
        if let Some(best) = best {
            layers.add("portfolio.best_single_s", best);
            layers.add("portfolio.race_with_best_s", *race_s);
        }
        layers.add(
            "portfolio.cancel_drain_s",
            (result.total_time.saturating_sub(result.time_to_verdict)).as_secs_f64(),
        );
        layers.add("portfolio.launches", result.schemes.len() as f64);
        layers.add(
            "portfolio.conclusive_launches",
            result.schemes.iter().filter(|s| s.conclusive).count() as f64,
        );
        layers.add(
            "portfolio.escalations",
            f64::from(u8::from(result.escalated())),
        );
        layers.add("service.queue_wait_s", outcome.queue_wait.as_secs_f64());
        layers.add("service.service_s", outcome.service_time.as_secs_f64());
        layers.add(
            "service.warm_checkouts",
            f64::from(u8::from(outcome.report.warm_store)),
        );
        layers.add("service.pool_gc_s", outcome.report.metrics.pool_gc_seconds);
        fold_dd(layers, delta);
    }

    fn chain(
        &self,
        rec: &mut Recorder,
        id: usize,
        spec: &ChainSpec,
    ) -> Result<ChainOutcome, String> {
        rec.span("service.chain", id, |_| {
            self.service
                .submit_chain(ChainRequest {
                    deadline: Some(RACE_DEADLINE),
                    ..ChainRequest::from_spec(spec)
                })
                .map(|handle| handle.wait())
                .map_err(|e| e.to_string())
        })
    }

    fn record_chain(&mut self, expected: Expected, outcome: &ChainOutcome, delta: &obs::Snapshot) {
        let report = &outcome.report;
        for step in &report.steps {
            let name = format!("{}:{}", report.name, step.pass);
            self.check("chain", &name, expected, Some(step.report.verdict));
        }
        // A step left unverified (after a refutation) has no verdict.
        for _ in report.steps.len()..report.steps_total {
            self.check("chain", &report.name, expected, None);
        }
        if !self.recording {
            return;
        }
        let layers = &mut self.layers;
        for step in &outcome.report.steps {
            layers.add("chain.step_s", step.report.total_time.as_secs_f64());
            layers.add("service.pool_gc_s", step.report.metrics.pool_gc_seconds);
            if let Some(store) = &step.report.shared_store {
                layers.add("chain.chain_hits", store.chain_hits as f64);
                layers.add("chain.intern_hits", store.intern_hits as f64);
            }
        }
        fold_dd(layers, delta);
    }
}

fn fold_dd(layers: &mut Layers, delta: &obs::Snapshot) {
    use obs::metrics::*;
    let count = |metric| delta.get(metric) as f64;
    layers.add("dd.compute_lookups", count(DD_COMPUTE_LOOKUPS));
    layers.add("dd.compute_hits", count(DD_COMPUTE_HITS));
    layers.add("dd.gate_lookups", count(DD_GATE_LOOKUPS));
    layers.add("dd.gate_hits", count(DD_GATE_HITS));
    layers.add("dd.unique_hits", count(DD_UNIQUE_HITS));
    layers.add("dd.cross_thread_hits", count(DD_CROSS_THREAD_HITS));
    layers.add("dd.gc_runs", count(DD_GC_RUNS));
    layers.add("dd.shard_contention_s", count(DD_SHARD_CONTENTION_NS) / 1e9);
    layers.add(
        "dd.gc_park_s",
        delta.hist(HIST_GC_PARK_NS).sum_ns as f64 / 1e9,
    );
}

/// Generates the compilation corpus once, as the benchmark's input
/// generation does, under a `compile.corpus` span, into `dir`, which is
/// removed afterwards.
fn compile_corpus(rec: &mut Recorder, layers: &mut Layers, dir: &Path) -> Result<(), String> {
    let start = Instant::now();
    rec.span("compile.corpus", usize::MAX, |_| write_corpus(dir))?;
    layers.add("compile.compile_s", start.elapsed().as_secs_f64());
    std::fs::remove_dir_all(dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))
}

fn run(args: &Args) -> Result<Value, String> {
    let (pairs, chains) = load_inputs(args)?;
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let service = VerificationService::start(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    });
    let schemes: Vec<Scheme> = registry().iter().map(|d| d.scheme).collect();
    let mut rec = Recorder::new(true);
    let mut plain = Recorder::new(false);
    let strategies = |dynamic: bool| -> Vec<Strategy> {
        schemes
            .iter()
            .filter_map(|s| match (s, dynamic) {
                (Scheme::Functional(strategy), false)
                | (Scheme::DynamicFunctional(strategy), true) => Some(*strategy),
                _ => None,
            })
            .collect()
    };
    let mut walk = Walk {
        service: &service,
        portfolio: PortfolioConfig {
            deadline: Some(RACE_DEADLINE),
            ..PortfolioConfig::default()
        },
        functional: strategies(false),
        dynamic_functional: strategies(true),
        layers: Layers::default(),
        recording: true,
        verdicts: 0,
        wrong: Vec::new(),
    };
    // The compile layer runs in every traced walk, so its cost is known on
    // every workload even where the inputs were not compiled.
    compile_corpus(
        &mut rec,
        &mut walk.layers,
        &args.inputs.join("traced-corpus"),
    )?;
    // The end-to-end calls run twice, with the recorder off and on,
    // alternating which goes first; the single checks run once, traced.
    // Metric folds walk every thread block ever registered, so they run
    // between root spans: their cost is the benchmark's, not a layer's.
    let mut walk_s = [0.0f64; 2]; // [off, on]
    let mut item_ratios = Vec::new();
    let items = pairs.len() + chains.len();
    for index in 0..items {
        let on_first = index % 2 == 1;
        let item_s = walk_s;
        if index < pairs.len() {
            let pair = &pairs[index];
            walk.recording = true;
            let parsed = rec.span("bench.pair", index, |r| walk.pair_checks(r, index, pair))?;
            for traced in [on_first, !on_first] {
                walk.recording = traced;
                let recorder = if traced { &mut rec } else { &mut plain };
                let before = obs::metrics::fold();
                let start = Instant::now();
                let e2e = recorder.span("bench.pair", index, |r| {
                    walk.pair_e2e(r, index, pair, &parsed)
                })?;
                walk_s[usize::from(traced)] += start.elapsed().as_secs_f64();
                let delta = obs::metrics::fold().delta_since(&before);
                walk.record_pair(pair, parsed.2, &e2e, &delta);
            }
        } else {
            let id = CHAIN_ID_BASE + index - pairs.len();
            let (spec, expected) = &chains[index - pairs.len()];
            for traced in [on_first, !on_first] {
                walk.recording = traced;
                let recorder = if traced { &mut rec } else { &mut plain };
                let before = obs::metrics::fold();
                let start = Instant::now();
                let outcome = recorder.span("bench.chain", id, |r| walk.chain(r, id, spec))?;
                walk_s[usize::from(traced)] += start.elapsed().as_secs_f64();
                let delta = obs::metrics::fold().delta_since(&before);
                walk.record_chain(*expected, &outcome, &delta);
            }
        }
        let (off, on) = (walk_s[0] - item_s[0], walk_s[1] - item_s[1]);
        if on > 0.0 {
            item_ratios.push(off / on);
        }
    }
    item_ratios.sort_by(f64::total_cmp);
    let (layers, verdicts, wrong) = (walk.layers, walk.verdicts, walk.wrong);
    service.drain();

    // Coverage: layer self time (every span below a root) over the roots'
    // wall time, per pair or chain.
    let self_ns = rec.self_times();
    let spans = rec.spans();
    let mut per_item: BTreeMap<usize, (f64, f64, &str)> = BTreeMap::new();
    for (index, span) in spans.iter().enumerate() {
        if span.name == "compile.corpus" {
            continue;
        }
        let entry = per_item.entry(span.pair).or_insert((0.0, 0.0, ""));
        if span.parent.is_none() {
            entry.0 += span.duration_ns() as f64;
            entry.2 = &span.name;
        } else {
            entry.1 += self_ns[index] as f64;
        }
    }
    let mut coverage_min = f64::INFINITY;
    let mut low = Vec::new();
    for (id, (total, covered, root)) in &per_item {
        let coverage = if *total > 0.0 { covered / total } else { 1.0 };
        coverage_min = coverage_min.min(coverage);
        if coverage < MIN_COVERAGE {
            low.push(Value::String(format!(
                "{root} {id}: {coverage:.3} of {:.6}s",
                total / 1e9
            )));
        }
    }
    rec.write_jsonl(&args.spans)
        .map_err(|e| format!("cannot write {}: {e}", args.spans.display()))?;

    let mut metrics: Vec<(String, f64)> = vec![
        ("circuit.parse_s".into(), layers.mean("circuit.parse_s")),
        (
            "compile.compile_s".into(),
            layers.total("compile.compile_s"),
        ),
        (
            "transform.reconstruct_s".into(),
            layers.mean("transform.reconstruct_s"),
        ),
        ("transform.align_s".into(), layers.mean("transform.align_s")),
        (
            "transform.reconstructed_ops".into(),
            layers.mean("transform.reconstructed_ops"),
        ),
        (
            "transform.rejections".into(),
            layers.total("transform.rejections"),
        ),
    ];
    for strategy in [
        Strategy::Proportional,
        Strategy::OneToOne,
        Strategy::Reference,
        Strategy::Aligned,
    ] {
        let label = strategy_label(strategy);
        metrics.push((
            format!("qcec.functional_s.{label}"),
            layers.mean(&format!("qcec.functional.{label}_s")),
        ));
    }

    metrics.extend([
        (
            "qcec.functional_peak_nodes".into(),
            layers.mean("qcec.functional_peak_nodes"),
        ),
        ("qcec.simulative_s".into(), layers.mean("qcec.simulative_s")),
        (
            "qcec.dynamic_functional_s".into(),
            layers.mean("qcec.dynamic_functional.proportional_s"),
        ),
        (
            "qcec.fixed_input_s".into(),
            layers.mean("qcec.fixed_input_s"),
        ),
        ("sim.extract_s".into(), layers.mean("sim.extract_s")),
        (
            "sim.extract_leaves".into(),
            layers.mean("sim.extract_leaves"),
        ),
        ("sim.statevector_s".into(), layers.mean("sim.statevector_s")),
        (
            "dd.compute_hit_ratio".into(),
            layers.ratio("dd.compute_hits", "dd.compute_lookups"),
        ),
        (
            "dd.gate_hit_ratio".into(),
            layers.ratio("dd.gate_hits", "dd.gate_lookups"),
        ),
        ("dd.gc_runs".into(), layers.total("dd.gc_runs")),
        ("dd.gc_park_s".into(), layers.total("dd.gc_park_s")),
        (
            "dd.shard_contention_s".into(),
            layers.total("dd.shard_contention_s"),
        ),
        (
            "dd.cross_thread_hit_ratio".into(),
            layers.ratio("dd.cross_thread_hits", "dd.unique_hits"),
        ),
        ("portfolio.race_s".into(), layers.mean("portfolio.race_s")),
        (
            "portfolio.best_single_s".into(),
            layers.mean("portfolio.best_single_s"),
        ),
        (
            "portfolio.race_overhead_ratio".into(),
            layers.ratio("portfolio.race_with_best_s", "portfolio.best_single_s"),
        ),
        (
            "portfolio.cancel_drain_s".into(),
            layers.mean("portfolio.cancel_drain_s"),
        ),
        (
            "portfolio.useful_launch_ratio".into(),
            layers.ratio("portfolio.conclusive_launches", "portfolio.launches"),
        ),
        (
            "portfolio.escalations".into(),
            layers.total("portfolio.escalations"),
        ),
        (
            "portfolio.wrong_verdicts".into(),
            layers.total("portfolio.wrong_verdicts"),
        ),
        (
            "service.wrong_verdicts".into(),
            layers.total("service.wrong_verdicts"),
        ),
        (
            "chain.wrong_verdicts".into(),
            layers.total("chain.wrong_verdicts"),
        ),
        ("chain.step_s".into(), layers.mean("chain.step_s")),
        (
            "chain.carryover_hit_ratio".into(),
            layers.ratio("chain.chain_hits", "chain.intern_hits"),
        ),
        (
            "service.pool_gc_s".into(),
            layers.total("service.pool_gc_s"),
        ),
        (
            "service.queue_wait_s".into(),
            layers.mean("service.queue_wait_s"),
        ),
        ("service.service_s".into(), layers.mean("service.service_s")),
        (
            "service.warm_checkout_ratio".into(),
            layers.mean("service.warm_checkouts"),
        ),
        // Per item, untraced time over traced time (traced pairs/s over
        // untraced pairs/s); the median keeps one stalled race from
        // standing for the whole walk.
        (
            "bench.trace_overhead_ratio".into(),
            item_ratios
                .get(item_ratios.len() / 2)
                .copied()
                .unwrap_or(0.0),
        ),
        (
            "bench.layer_coverage_min".into(),
            if coverage_min.is_finite() {
                coverage_min
            } else {
                1.0
            },
        ),
    ]);
    Ok(Value::Object(vec![
        ("items".into(), Value::Number(items as f64)),
        ("verdicts".into(), Value::Number(verdicts as f64)),
        (
            "wrong".into(),
            Value::Array(wrong.into_iter().map(Value::String).collect()),
        ),
        ("walk_off_s".into(), Value::Number(walk_s[0])),
        ("walk_on_s".into(), Value::Number(walk_s[1])),
        ("spans".into(), Value::Number(spans.len() as f64)),
        ("low_coverage".into(), Value::Array(low)),
        (
            "metrics".into(),
            Value::Object(
                metrics
                    .into_iter()
                    .map(|(k, v)| (k, Value::Number(v)))
                    .collect(),
            ),
        ),
    ]))
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("usage: traced --workload NAME --inputs DIR --spans FILE");
        std::process::exit(2);
    });
    match run(&args) {
        Ok(report) => println!("{}", serde_json::to_string(&report).expect("plain JSON")),
        Err(error) => {
            eprintln!("error: {error}");
            std::process::exit(1);
        }
    }
}
