//! Self-contained repro artifacts for failing chaos runs.
//!
//! When the soak campaign trips over a failure — a hang, a diverged
//! result, an Auditor violation — the offending fault plan is
//! automatically minimized ([`minimize_failure`], delta debugging over
//! the deterministic simulator) and the whole failing cell is written
//! out as a plain-text **repro artifact**: cluster size, technology,
//! workload, the expected and observed outcomes, and the minimized
//! plan. `soak --repro <file>` replays the artifact in a fresh process
//! and checks that the *same* failure reproduces, so a nightly CI
//! failure travels as one small file that any machine can replay.
//!
//! ```text
//! # acc soak repro v1
//! campaign-seed 0xacc50ac
//! round 7
//! p 4
//! technology inic-ideal
//! workload sort 16384
//! expected verified completion
//! observed hung: simulated-time deadline exceeded; stuck in exchange on rank 2
//! # minimized fault plan
//! # acc fault plan v1
//! seed 0x93c4e1d2b7a05f68
//! link-outage link=up:2 from=1000000 until=30000000000000
//! ```
//!
//! The `workload` line encodes the three shapes the soak runs: the
//! paper's sort (`sort <keys>`), the FFT (`fft <rows>`) and one engine
//! collective (`coll <op> <algo> <elems>`).
//!
//! Everything here is deterministic: the observation string for a
//! given `(spec, plan, workload)` is a pure function of the simulation,
//! and the minimizer consumes oracle verdicts batch-wise in submission
//! order (see `acc-chaos`), so `--jobs 1` and `--jobs 4` produce
//! byte-identical artifacts.

use acc_chaos::FaultPlan;
use acc_coll::{Algorithm, CollectiveOp};
use acc_core::cluster::{KeyDistribution, PartitionStrategy};
use acc_core::{ClusterSpec, RunOutcome, RunRequest, Technology, Workload};
use acc_net::FabricSpec;
use acc_sim::SimTime;

use crate::executor::Executor;

/// What a failing run was expected to do. One canonical string so
/// artifacts diff cleanly.
pub const EXPECTED_CLEAN: &str = "verified completion";

/// The artifact's `workload` line fragment: `sort 16384` (the paper's
/// sort), `fft 32` or `coll allreduce ring 4096`.
///
/// # Panics
/// Panics on any other workload, naming it: the soak runs only these
/// three shapes, so the codec encodes no others.
pub fn workload_label(workload: &Workload) -> String {
    match *workload {
        Workload::Sort {
            total_keys,
            distribution: KeyDistribution::Uniform,
            strategy: PartitionStrategy::TopBits,
        } => format!("sort {total_keys}"),
        Workload::Fft { rows } => format!("fft {rows}"),
        Workload::Collective { op, algo, elems } => {
            format!("coll {} {} {elems}", op.label(), algo.label())
        }
        other => panic!("repro artifacts cannot encode the workload {other:?}"),
    }
}

/// Parse a [`workload_label`] fragment back.
fn parse_workload(v: &str, ln: usize) -> Result<Workload, String> {
    let (kind, rest) = v
        .split_once(' ')
        .ok_or_else(|| format!("line {ln}: workload needs '<kind> <size>', got '{v}'"))?;
    match kind {
        "sort" => rest
            .parse()
            .map(|total_keys| Workload::Sort {
                total_keys,
                distribution: KeyDistribution::Uniform,
                strategy: PartitionStrategy::TopBits,
            })
            .map_err(|_| format!("line {ln}: bad sort key count '{rest}'")),
        "fft" => rest
            .parse()
            .map(|rows| Workload::Fft { rows })
            .map_err(|_| format!("line {ln}: bad fft rows '{rest}'")),
        "coll" => {
            let mut parts = rest.split(' ');
            let (Some(op), Some(algo), Some(elems), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "line {ln}: coll workload needs '<op> <algo> <elems>', got '{rest}'"
                ));
            };
            let op = CollectiveOp::parse(op)
                .ok_or_else(|| format!("line {ln}: unknown collective '{op}'"))?;
            let algo = Algorithm::parse(algo)
                .ok_or_else(|| format!("line {ln}: unknown algorithm '{algo}'"))?;
            let elems = elems
                .parse()
                .map_err(|_| format!("line {ln}: bad element count '{elems}'"))?;
            Ok(Workload::Collective { op, algo, elems })
        }
        other => Err(format!("line {ln}: unknown workload kind '{other}'")),
    }
}

/// One failing soak cell, ready to be written to disk and replayed.
#[derive(Clone, PartialEq, Debug)]
pub struct ReproArtifact {
    /// The soak campaign seed the failure was found under.
    pub campaign_seed: u64,
    /// The failing round.
    pub round: u64,
    /// Cluster size.
    pub p: usize,
    /// Cluster technology.
    pub technology: Technology,
    /// The failing workload: one of the three shapes
    /// [`workload_label`] encodes.
    pub workload: Workload,
    /// The fabric the cluster was wired with. Single-switch artifacts
    /// omit the `topology` line, so pre-fabric artifacts parse
    /// unchanged.
    pub fabric: FabricSpec,
    /// What should have happened.
    pub expected: String,
    /// What happened instead (the deterministic observation string).
    pub observed: String,
    /// The (minimized) fault plan that makes it happen.
    pub plan: FaultPlan,
}

impl ReproArtifact {
    /// Serialize to the `# acc soak repro v1` text format.
    ///
    /// # Panics
    /// Panics if the workload is not one [`workload_label`] encodes.
    pub fn to_text(&self) -> String {
        let topology = match self.fabric {
            FabricSpec::SingleSwitch => String::new(),
            other => format!("topology {}\n", other.label()),
        };
        format!(
            "# acc soak repro v1\n\
             campaign-seed {:#x}\n\
             round {}\n\
             p {}\n\
             technology {}\n\
             {topology}workload {}\n\
             expected {}\n\
             observed {}\n\
             # minimized fault plan\n\
             {}",
            self.campaign_seed,
            self.round,
            self.p,
            self.technology.label(),
            workload_label(&self.workload),
            self.expected,
            self.observed,
            self.plan.to_text(),
        )
    }

    /// Parse an artifact back, validating the embedded plan against the
    /// recorded cluster size.
    ///
    /// # Errors
    /// Returns a message naming the offending line and what was wrong.
    pub fn from_text(text: &str) -> Result<ReproArtifact, String> {
        let mut campaign_seed = None;
        let mut round = None;
        let mut p: Option<usize> = None;
        let mut technology = None;
        let mut workload = None;
        let mut fabric = FabricSpec::SingleSwitch;
        let mut expected = None;
        let mut observed = None;
        let mut plan_text = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let ln = idx + 1;
            let (key, value) = line.split_once(' ').unwrap_or((line, ""));
            let value = value.trim();
            match key {
                "campaign-seed" => campaign_seed = Some(parse_u64(value, ln)?),
                "round" => round = Some(parse_u64(value, ln)?),
                "p" => {
                    p = Some(
                        value
                            .parse()
                            .map_err(|_| format!("line {ln}: bad cluster size '{value}'"))?,
                    );
                }
                "technology" => {
                    technology = Some(
                        Technology::ALL
                            .into_iter()
                            .find(|t| t.label() == value)
                            .ok_or_else(|| format!("line {ln}: unknown technology '{value}'"))?,
                    );
                }
                "workload" => workload = Some(parse_workload(value, ln)?),
                "topology" => {
                    fabric = FabricSpec::parse(value).map_err(|e| format!("line {ln}: {e}"))?;
                }
                "expected" => expected = Some(value.to_owned()),
                "observed" => observed = Some(value.to_owned()),
                // Anything else is a fault-plan directive; collect the
                // raw lines and let the plan codec judge them.
                _ => {
                    plan_text.push_str(line);
                    plan_text.push('\n');
                }
            }
        }
        let plan = FaultPlan::from_text(&plan_text)?;
        let p = p.ok_or("missing 'p' line")?;
        fabric
            .validate(p)
            .map_err(|e| format!("topology is invalid for p={p}: {e}"))?;
        // `SimTime::MAX` as the horizon: an artifact carries no run
        // deadline, so only structural and topology checks apply.
        plan.validate_for_fabric(p as u32, SimTime::MAX, &fabric)
            .map_err(|e| format!("embedded plan is invalid for p={p}: {e}"))?;
        Ok(ReproArtifact {
            campaign_seed: campaign_seed.ok_or("missing 'campaign-seed' line")?,
            round: round.ok_or("missing 'round' line")?,
            p,
            technology: technology.ok_or("missing 'technology' line")?,
            workload: workload.ok_or("missing 'workload' line")?,
            fabric,
            expected: expected.ok_or("missing 'expected' line")?,
            observed: observed.ok_or("missing 'observed' line")?,
            plan,
        })
    }

    /// The cluster spec the artifact describes (quiet: a replay *wants*
    /// the failure, so the engine's stderr dumps are noise).
    pub fn spec(&self) -> ClusterSpec {
        ClusterSpec::new(self.p, self.technology)
            .with_fabric(self.fabric)
            .with_fault_plan(self.plan.clone())
            .with_quiet(true)
    }

    /// Re-run the artifact and check the recorded failure reproduces.
    ///
    /// # Errors
    /// `Err` describes the divergence: the run completed, or failed in
    /// a different way than the artifact recorded.
    pub fn replay(&self) -> Result<String, String> {
        match observe(self.spec(), self.workload) {
            Some(obs) if obs == self.observed => Ok(obs),
            Some(obs) => Err(format!(
                "replay failed differently:\n  recorded: {}\n  observed: {obs}",
                self.observed
            )),
            None => Err(format!(
                "replay did not fail: run completed verified (recorded failure was: {})",
                self.observed
            )),
        }
    }
}

fn parse_u64(v: &str, ln: usize) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| format!("line {ln}: '{v}' is not an unsigned integer"))
}

/// Execute a run, converting a panic (Auditor violation, protocol
/// assert) into an `Err` carrying the panic message's first line.
pub fn execute_caught(req: RunRequest) -> Result<RunOutcome, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| req.execute())).map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        msg.lines().next().unwrap_or("panic").to_owned()
    })
}

/// The deterministic failure description of an outcome, or `None` if
/// the run completed and verified. This string is what repro artifacts
/// record and compare on replay, so it must depend only on the
/// simulation — never on wall clock, thread identity, or job count.
pub fn failure_of(outcome: &Result<RunOutcome, String>) -> Option<String> {
    match outcome {
        Err(msg) => Some(format!("panicked: {msg}")),
        Ok(RunOutcome::Hung(report)) => Some(format!(
            "hung: {}; stuck in {}",
            report.cause,
            report.attribution()
        )),
        Ok(outcome) if !outcome.verified() => {
            Some("result diverged from the serial oracle".to_owned())
        }
        Ok(_) => None,
    }
}

/// Run one quiet cell and report its failure, if any.
pub fn observe(spec: ClusterSpec, workload: Workload) -> Option<String> {
    failure_of(&execute_caught(RunRequest { spec, workload }))
}

/// Minimize a failing cell's fault plan, testing candidate plans in
/// parallel on `ex`. Every candidate batch maps to one
/// [`Executor::map`] call, and verdicts come back in submission order,
/// so the reduction path — and therefore the minimized plan — is
/// byte-identical at any `--jobs` count.
///
/// "Failing" means *any* failure (hang, divergence, panic), so the
/// minimal plan pins the cheapest way to break the cell, which is the
/// right starting point for debugging. Call inside
/// [`with_silent_panics`] if the candidates' expected panics should
/// stay off stderr.
pub fn minimize_failure(
    ex: &Executor,
    p: usize,
    technology: Technology,
    workload: Workload,
    fabric: FabricSpec,
    plan: &FaultPlan,
) -> FaultPlan {
    plan.minimize(|batch| {
        let tasks: Vec<_> = batch
            .iter()
            .map(|candidate| {
                let spec = ClusterSpec::new(p, technology)
                    .with_fabric(fabric)
                    .with_fault_plan(candidate.clone())
                    .with_quiet(true);
                move || observe(spec, workload).is_some()
            })
            .collect();
        ex.map(tasks)
    })
}

/// Run `f` with the process panic hook silenced, restoring the
/// previous hook afterwards. For harness phases whose worker panics
/// are *expected* (minimizer candidates, replays): the runs are caught
/// and judged, so the default hook's stderr backtrace chatter is pure
/// noise. Swaps a process-global; do not call from concurrent threads.
pub fn with_silent_panics<T>(f: impl FnOnce() -> T) -> T {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(previous);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_chaos::{FaultEvent, LinkId};
    use acc_sim::{SimDuration, SimTime};

    fn artifact() -> ReproArtifact {
        let plan = FaultPlan::new(0x5EED).with(FaultEvent::LinkOutage {
            link: LinkId::NodeUplink(1),
            from: SimTime::ZERO + SimDuration::from_micros(1),
            until: SimTime::ZERO + SimDuration::from_secs(30),
        });
        ReproArtifact {
            campaign_seed: 0xACC_50AC,
            round: 7,
            p: 4,
            technology: Technology::InicIdeal,
            workload: RunRequest::sort(ClusterSpec::new(4, Technology::InicIdeal), 1 << 14)
                .workload,
            fabric: FabricSpec::SingleSwitch,
            expected: EXPECTED_CLEAN.to_owned(),
            observed: "hung: simulated-time deadline exceeded; stuck in exchange on rank 1"
                .to_owned(),
            plan,
        }
    }

    #[test]
    fn artifact_roundtrips_through_text() {
        let a = artifact();
        let text = a.to_text();
        assert_eq!(ReproArtifact::from_text(&text), Ok(a), "text was:\n{text}");
    }

    #[test]
    fn fft_workloads_roundtrip_too() {
        let mut a = artifact();
        a.workload = Workload::Fft { rows: 32 };
        assert_eq!(ReproArtifact::from_text(&a.to_text()), Ok(a));
    }

    #[test]
    fn collective_workloads_roundtrip_too() {
        let mut a = artifact();
        for op in CollectiveOp::ALL {
            for algo in op.algorithms() {
                a.workload = Workload::Collective {
                    op,
                    algo,
                    elems: 4096,
                };
                assert_eq!(
                    ReproArtifact::from_text(&a.to_text()),
                    Ok(a.clone()),
                    "{op}/{algo}"
                );
            }
        }
        let garbled = artifact().to_text().replace(
            "workload sort 16384",
            "workload coll allreduce warp-speed 4096",
        );
        let err = ReproArtifact::from_text(&garbled).unwrap_err();
        assert!(err.contains("warp-speed"), "{err}");
    }

    /// The `coll` artifact `soak --rounds 64 --coll` writes to
    /// `soak-repro.txt` for its round-036 hang.
    const SOAK_COLL_ARTIFACT: &str = "\
# acc soak repro v1
campaign-seed 0xacc50ac
round 36
p 4
technology gigabit-tcp
workload coll allreduce ring 4096
expected verified completion
observed hung: simulated-time deadline exceeded; stuck in collective ring step on rank 0
# minimized fault plan
# acc fault plan v1
seed 0x223e8d49fe76cde5
frame-loss link=all prob=0.01308
link-jitter link=all max=17000000
frame-corruption link=all prob=8.153915405273437e-10
";

    /// The example artifact of this module's doc comment, with the
    /// `//! ` prefixes stripped.
    fn module_doc_artifact() -> String {
        let source = include_str!("repro.rs");
        let start = source.find("//! ```text\n").expect("doc example") + "//! ```text\n".len();
        let len = source[start..].find("//! ```\n").expect("doc example ends");
        source[start..start + len]
            .lines()
            .map(|l| format!("{}\n", l.strip_prefix("//! ").unwrap_or("")))
            .collect()
    }

    #[test]
    fn written_artifacts_reparse_to_the_same_text() {
        for text in [module_doc_artifact(), SOAK_COLL_ARTIFACT.to_owned()] {
            let parsed = ReproArtifact::from_text(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(parsed.to_text(), text);
        }
    }

    #[test]
    #[should_panic(expected = "cannot encode the workload Halo")]
    fn workloads_the_soak_never_runs_do_not_encode() {
        let mut a = artifact();
        a.workload = Workload::Halo {
            elems: 256,
            iters: 3,
        };
        a.to_text();
    }

    #[test]
    fn fabric_artifacts_roundtrip_and_validate_topology() {
        // Single-switch artifacts carry no `topology` line, so the
        // pre-fabric text format is unchanged.
        assert!(!artifact().to_text().contains("topology"));
        let mut a = artifact();
        a.fabric = FabricSpec::Torus3D { dims: [2, 2, 1] };
        a.plan = FaultPlan::new(0x5EED).with(FaultEvent::LinkDown {
            a: 0,
            b: 1,
            from: SimTime::ZERO + SimDuration::from_micros(1),
            until: SimTime::ZERO + SimDuration::from_millis(1),
        });
        let text = a.to_text();
        assert!(text.contains("topology torus:2x2x1"), "{text}");
        assert_eq!(ReproArtifact::from_text(&text), Ok(a.clone()));
        // A fabric fault without a matching topology is caught at
        // parse time, not as a wiring panic at replay time.
        let no_topology = text.replace("topology torus:2x2x1\n", "");
        let err = ReproArtifact::from_text(&no_topology).unwrap_err();
        assert!(err.contains("invalid for p=4"), "{err}");
        // As is a topology too small for the recorded cluster size.
        let tiny = text.replace("torus:2x2x1", "torus:2x1x1");
        let err = ReproArtifact::from_text(&tiny).unwrap_err();
        assert!(err.contains("topology is invalid for p=4"), "{err}");
    }

    #[test]
    fn parse_errors_are_actionable() {
        let missing = ReproArtifact::from_text("p 4\n");
        assert!(missing.unwrap_err().contains("missing"), "names the gap");
        let bad_tech = artifact().to_text().replace("inic-ideal", "warp-drive");
        let err = ReproArtifact::from_text(&bad_tech).unwrap_err();
        assert!(err.contains("warp-drive"), "{err}");
        // A plan inconsistent with the recorded cluster size is caught
        // at parse time, not as a panic at replay time.
        let bad_plan = artifact().to_text().replace("up:1", "up:9");
        let err = ReproArtifact::from_text(&bad_plan).unwrap_err();
        assert!(err.contains("invalid for p=4"), "{err}");
    }

    #[test]
    fn execute_caught_reports_completion_and_catches_panics() {
        let req = RunRequest::sort(ClusterSpec::new(2, Technology::InicIdeal), 1 << 10);
        let outcome = execute_caught(req);
        assert!(failure_of(&outcome).is_none(), "clean run has no failure");
        let panicked: Result<RunOutcome, String> = Err("AUDIT VIOLATION: demo".to_owned());
        let described = failure_of(&panicked).expect("a panic is a failure");
        assert!(described.contains("panicked") && described.contains("AUDIT VIOLATION"));
    }
}
