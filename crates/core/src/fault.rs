//! Deterministic fault injection and solve checkpointing.
//!
//! The source paper targets a *cluster* of GPU-accelerated hosts, where a
//! member disappearing mid-solve is the normal case, not the exception.
//! This module supplies the two substrates that story needs:
//!
//! **Failure plans** ([`FailurePlan`]): a schedule of member-death events
//! keyed by the fleet's batch ordinal — either spelled out explicitly
//! ([`GpuSolverConfig::fail_at`]) or derived as a pure function of a seed
//! ([`FailurePlan::seeded`], [`GpuSolverConfig::fail_seed`]) so every run
//! is reproducible. The [`crate::fleet::FleetBackend`] fires the events at
//! batch boundaries: a dead member is retired from the roster, and every
//! shard the failure-free plan would have delivered to it is re-dealt over
//! the survivors by [`redeal_plan`] — the same
//! [`plan_shards_weighted`]/[`steal_pass`] machinery that cut the original
//! deal. Because a node's bound depends only on the node, *who* bounds a
//! shard cannot change a single bit of the search: the visited node set,
//! the incumbent trajectory and all non-recovery cost counters stay exactly
//! equal to the failure-free run, while the recovery itself is observable
//! through three dedicated [`CostReport`] counters (`fleet_failures`,
//! `fleet_redealt_nodes`, `fleet_recovery_nanos`) under the same
//! exact-equality cost gate as everything else.
//!
//! **Checkpoints** ([`SolveCheckpoint`]): the solver's complete resumable
//! state at a batch boundary — pool frontier (in deterministic drain
//! order), incumbent, proven bound and accumulated [`CostReport`] — with a
//! JSON round-trip ([`SolveCheckpoint::to_json`] /
//! [`SolveCheckpoint::from_json`], schema [`CHECKPOINT_SCHEMA_VERSION`]).
//! Re-pushing the frontier in drain order reproduces the pool's exact pop
//! order (best-first on bound, ties deeper-first then insertion order), so
//! a resumed solve ([`crate::solver::GpuBnbSolver::resume`],
//! [`crate::service::JobSpec::resume_from`]) continues the identical
//! exploration and ends with the same certificate — makespan, proven bound
//! and summed cost — as an uninterrupted run.
//!
//! A checkpoint file is untrusted input. [`SolveCheckpoint::from_json`]
//! reads it through the workspace's one JSON reader ([`crate::json`]) and
//! rejects malformed documents, cost objects and job lists;
//! [`SolveCheckpoint::check`] then verifies it against the instance (shape,
//! the incumbent's recomputed makespan, `proven_bound ≤ upper_bound`, no
//! frontier bound above its prefix's Johnson bound) before a resume trusts
//! it.

use crate::config::GpuSolverConfig;
use crate::cost::CostReport;
use crate::fleet::{plan_shards_weighted, steal_pass, FleetShard, MemberModel};
use crate::json::{get, Json};
use bb::problem::NodeBound;
use bb::FspNode;
use fsp::schedule::{is_permutation, makespan};
use fsp::{Instance, Job, JohnsonLowerBound, Time};

/// Schema tag of the checkpoint JSON document.
pub const CHECKPOINT_SCHEMA_VERSION: &str = "flowshop-bnb-checkpoint/v1";

/// One scheduled member death: `member` dies at the start of fleet batch
/// `batch` (0-based ordinal of non-empty `bound_batch` calls).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureEvent {
    /// Fleet batch ordinal at whose start the member dies.
    pub batch: u64,
    /// Ordinal of the member that dies.
    pub member: usize,
}

/// A deterministic schedule of fleet member deaths: a pure function of its
/// inputs (explicit events or a seed), so runs with the same plan are
/// bit-for-bit reproducible. Events are kept sorted by `(batch, member)`
/// with at most one death per member (the earliest wins).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailurePlan {
    events: Vec<FailureEvent>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Batch ordinals the seeded plan draws deaths from: failures land early in
/// the solve (ordinals `0..16`), where the pool is still shallow and a
/// recovery bug would bite hardest.
const SEEDED_BATCH_RANGE: u64 = 16;

impl FailurePlan {
    /// Builds a plan from explicit events. Duplicate deaths of the same
    /// member collapse to the earliest one; the result is sorted by
    /// `(batch, member)`.
    pub fn from_events(events: Vec<FailureEvent>) -> Self {
        let mut sorted = events;
        sorted.sort_unstable_by_key(|e| (e.batch, e.member));
        let mut dedup: Vec<FailureEvent> = Vec::with_capacity(sorted.len());
        for event in sorted {
            if !dedup.iter().any(|e| e.member == event.member) {
                dedup.push(event);
            }
        }
        Self { events: dedup }
    }

    /// Derives a plan purely from `seed` for a fleet of `members`: kills
    /// `members / 2` distinct members (so at least one always survives; a
    /// one-member fleet gets an empty plan) at seed-chosen batch ordinals in
    /// `0..16`. The same `(seed, members)` pair always yields the same plan.
    ///
    /// # Panics
    ///
    /// Panics if `members` is zero.
    pub fn seeded(seed: u64, members: usize) -> Self {
        assert!(members > 0, "a failure plan needs a non-empty fleet");
        let deaths = members / 2;
        // Fold in a constant so seed 0 still walks a non-trivial sequence.
        let mut state = seed ^ 0x5EED_FA17_D1ED_0DD5;
        let mut dead = vec![false; members];
        let mut events = Vec::with_capacity(deaths);
        while events.len() < deaths {
            let member = (splitmix64(&mut state) % members as u64) as usize;
            if dead[member] {
                continue;
            }
            dead[member] = true;
            let batch = splitmix64(&mut state) % SEEDED_BATCH_RANGE;
            events.push(FailureEvent { batch, member });
        }
        Self::from_events(events)
    }

    /// The plan a fleet of `members` derives from its configuration:
    /// explicit [`GpuSolverConfig::fail_at`] events take precedence over
    /// [`GpuSolverConfig::fail_seed`]; with neither set the plan is empty.
    ///
    /// # Panics
    ///
    /// Panics if an explicit event names a member ordinal `>= members`, or
    /// if the plan would leave no member alive.
    pub fn from_config(config: &GpuSolverConfig, members: usize) -> Self {
        let plan = if !config.fail_at.is_empty() {
            Self::from_events(
                config
                    .fail_at
                    .iter()
                    .map(|&(batch, member)| FailureEvent { batch, member })
                    .collect(),
            )
        } else if let Some(seed) = config.fail_seed {
            Self::seeded(seed, members)
        } else {
            Self::default()
        };
        plan.assert_fits(members);
        plan
    }

    /// Validates the plan against a fleet of `members`.
    ///
    /// # Panics
    ///
    /// Panics if an event names a member ordinal `>= members`, or if the
    /// plan kills every member (recovery needs at least one survivor).
    pub fn assert_fits(&self, members: usize) {
        for event in &self.events {
            assert!(
                event.member < members,
                "failure plan kills member {} of a {members}-member fleet",
                event.member
            );
        }
        assert!(
            self.events.len() < members || self.events.is_empty(),
            "failure plan must leave at least one fleet member alive"
        );
    }

    /// The scheduled deaths, sorted by `(batch, member)`, one per member.
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }

    /// `true` when the plan schedules no deaths.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Re-deals `dead_nodes` nodes (the combined shard a dead member would have
/// received) over the surviving members: the survivors' launch-quantized
/// models drive the same weighted deal as the original plan
/// ([`plan_shards_weighted`] at the batch's chunk granularity, rebalanced by
/// [`steal_pass`] when `stealing`), and the resulting shards are remapped
/// from survivor positions back to fleet ordinals. The result partitions
/// `0..dead_nodes` (indices into the dead member's shard, in input order),
/// assigns work only to `survivors`, and is a pure function of its inputs.
///
/// `survivors` lists the alive fleet ordinals in ascending order; `models`
/// is indexed by fleet ordinal (dead members' entries are ignored).
///
/// # Panics
///
/// Panics if `survivors` is empty, names an ordinal outside `models`, or a
/// survivor's model weight is non-finite or non-positive.
pub fn redeal_plan(
    dead_nodes: usize,
    survivors: &[usize],
    models: &[MemberModel],
    chunk: usize,
    stealing: bool,
) -> Vec<FleetShard> {
    assert!(
        !survivors.is_empty(),
        "recovery needs at least one surviving member"
    );
    let survivor_models: Vec<MemberModel> = survivors.iter().map(|&o| models[o]).collect();
    let weights: Vec<f64> = survivor_models.iter().map(|m| m.weight).collect();
    let mut shards = plan_shards_weighted(dead_nodes, &weights, chunk);
    if stealing {
        steal_pass(&mut shards, &survivor_models);
    }
    // Remap survivor positions back to fleet ordinals (ascending, so the
    // shard order stays ordinal order).
    for shard in &mut shards {
        shard.device = survivors[shard.device];
    }
    shards
}

/// Modelled critical path of a recovery plan: the slowest survivor's
/// completion time over its re-dealt shard (`models` indexed by fleet
/// ordinal). This is what [`crate::fleet::FleetBackend`] charges to the
/// `fleet_recovery_nanos` counter.
pub fn recovery_critical_seconds(shards: &[FleetShard], models: &[MemberModel]) -> f64 {
    shards
        .iter()
        .map(|s| models[s.device].completion_seconds(s.nodes()))
        .fold(0.0, f64::max)
}

/// A solve frozen at a batch boundary: everything
/// [`crate::solver::GpuBnbSolver::resume`] needs to continue the identical
/// exploration and end with the same certificate (makespan, proven bound,
/// summed [`CostReport`]) as the uninterrupted run.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveCheckpoint {
    /// Jobs of the instance the checkpoint belongs to (shape check only —
    /// the instance itself is not serialized).
    pub jobs: usize,
    /// Machines of the instance the checkpoint belongs to.
    pub machines: usize,
    /// Incumbent makespan at the boundary ([`Time::MAX`] when none).
    pub upper_bound: Time,
    /// Schedule achieving the incumbent, when one was reached or supplied.
    pub best_schedule: Option<Vec<Job>>,
    /// Proven lower bound at the boundary: the pool's best pending bound
    /// clamped to the incumbent (the incumbent itself when the pool ran
    /// dry).
    pub proven_bound: Time,
    /// Cost counters accumulated up to the boundary; a resumed solve
    /// absorbs these so the summed report equals the uninterrupted run's.
    pub cost: CostReport,
    /// The pending pool, drained in pop order as `(prefix, bound)` pairs.
    /// Re-pushing in this order reproduces the exact pop order (best-first
    /// on bound, ties deeper-first then insertion order).
    pub frontier: Vec<(Vec<Job>, Time)>,
}

impl SolveCheckpoint {
    /// Rebuilds the frontier as solver nodes against `inst`.
    ///
    /// # Panics
    ///
    /// Panics if `inst`'s shape disagrees with the checkpoint's.
    pub fn to_nodes(&self, inst: &Instance) -> Vec<FspNode> {
        assert_eq!(
            (self.jobs, self.machines),
            (inst.jobs(), inst.machines()),
            "checkpoint shape {}x{} does not match the instance",
            self.jobs,
            self.machines
        );
        self.frontier
            .iter()
            .map(|(prefix, bound)| {
                let mut node = FspNode::from_prefix(inst, prefix);
                node.set_bound(*bound);
                node
            })
            .collect()
    }

    /// Serializes the checkpoint as a standalone JSON document (schema
    /// [`CHECKPOINT_SCHEMA_VERSION`]); [`SolveCheckpoint::from_json`] is its
    /// exact inverse.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"schema_version\": \"{CHECKPOINT_SCHEMA_VERSION}\",\n"
        ));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!("  \"machines\": {},\n", self.machines));
        out.push_str(&format!("  \"upper_bound\": {},\n", self.upper_bound));
        match &self.best_schedule {
            Some(schedule) => {
                out.push_str(&format!("  \"best_schedule\": {},\n", jobs_json(schedule)));
            }
            None => out.push_str("  \"best_schedule\": null,\n"),
        }
        out.push_str(&format!("  \"proven_bound\": {},\n", self.proven_bound));
        out.push_str(&format!("  \"cost\": {},\n", self.cost.to_json("  ")));
        out.push_str("  \"frontier\": [");
        for (i, (prefix, bound)) in self.frontier.iter().enumerate() {
            let sep = if i + 1 < self.frontier.len() { "," } else { "" };
            out.push_str(&format!(
                "\n    {{\"prefix\": {}, \"bound\": {bound}}}{sep}",
                jobs_json(prefix)
            ));
        }
        if !self.frontier.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses a document emitted by [`SolveCheckpoint::to_json`]. Rejects,
    /// with a human-readable reason: an unknown schema version; a missing
    /// field; a malformed cost object ([`CostReport::from_json`]); a
    /// frontier prefix naming a job outside `0..jobs` or one job twice; and
    /// a `best_schedule` that is not a permutation of `0..jobs`. Whether
    /// the checkpoint fits an instance is [`SolveCheckpoint::check`]'s job.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        let obj = doc.as_object("checkpoint")?;
        let schema = get(obj, "schema_version")?.as_str("schema_version")?;
        if schema != CHECKPOINT_SCHEMA_VERSION {
            return Err(format!(
                "unsupported checkpoint schema {schema:?} (expected {CHECKPOINT_SCHEMA_VERSION:?})"
            ));
        }
        let jobs = get(obj, "jobs")?.as_int("jobs")?;
        let best_schedule = match get(obj, "best_schedule")? {
            Json::Null => None,
            value => {
                let schedule = jobs_from_json(value, "best_schedule")?;
                if !is_permutation(&schedule, jobs) {
                    return Err(format!(
                        "best_schedule {schedule:?} is not a permutation of 0..{jobs}"
                    ));
                }
                Some(schedule)
            }
        };
        let mut frontier = Vec::new();
        for entry in get(obj, "frontier")?.as_array("frontier")? {
            let node = entry.as_object("frontier entry")?;
            let prefix = jobs_from_json(get(node, "prefix")?, "prefix")?;
            let mut sorted = prefix.clone();
            sorted.sort_unstable();
            if sorted.last().is_some_and(|&j| j >= jobs) || sorted.windows(2).any(|w| w[0] == w[1])
            {
                return Err(format!(
                    "frontier prefix {prefix:?} is not a partial schedule of 0..{jobs}"
                ));
            }
            frontier.push((prefix, get(node, "bound")?.as_int("bound")?));
        }
        Ok(Self {
            jobs,
            machines: get(obj, "machines")?.as_int("machines")?,
            upper_bound: get(obj, "upper_bound")?.as_int("upper_bound")?,
            best_schedule,
            proven_bound: get(obj, "proven_bound")?.as_int("proven_bound")?,
            cost: CostReport::from_json(get(obj, "cost")?)?,
            frontier,
        })
    }

    /// Checks the checkpoint against the instance it claims to belong to:
    /// the shape matches, the incumbent's recomputed makespan equals
    /// `upper_bound` (an incumbent without a schedule cannot be checked, so
    /// `upper_bound` must then be [`Time::MAX`]), and `proven_bound ≤
    /// upper_bound`, and no frontier node's stored bound exceeds the Johnson
    /// bound of its prefix (a higher one would let the resumed solve prune
    /// what it never proved). Run it before resuming a checkpoint read from
    /// a file.
    ///
    /// It cannot tell whether the frontier is complete, and trusts that it
    /// is: a file with frontier nodes removed, or with none at all, passes,
    /// and resuming it certifies the incumbent without searching the
    /// missing subtrees.
    pub fn check(&self, inst: &Instance) -> Result<(), String> {
        if (self.jobs, self.machines) != (inst.jobs(), inst.machines()) {
            return Err(format!(
                "checkpoint was written for a {}x{} instance, not {}x{}",
                self.jobs,
                self.machines,
                inst.jobs(),
                inst.machines()
            ));
        }
        let claimed = match &self.best_schedule {
            Some(schedule) if !is_permutation(schedule, inst.jobs()) => {
                return Err(format!("best_schedule {schedule:?} is not a permutation"));
            }
            Some(schedule) => makespan(inst, schedule),
            None => Time::MAX,
        };
        if claimed != self.upper_bound {
            return Err(format!(
                "upper_bound {} does not match the best schedule's makespan {claimed}",
                self.upper_bound
            ));
        }
        if self.proven_bound > self.upper_bound {
            return Err(format!(
                "proven_bound {} exceeds upper_bound {}",
                self.proven_bound, self.upper_bound
            ));
        }
        let nodes = self.to_nodes(inst);
        let mut bounds = Vec::with_capacity(nodes.len());
        JohnsonLowerBound::new(inst).bound_nodes(&nodes, &mut bounds);
        if let Some((node, bound)) = nodes.iter().zip(bounds).find(|(n, b)| n.bound() > *b) {
            return Err(format!(
                "frontier node {:?} claims bound {}, above its Johnson bound {bound}",
                node.prefix_vec(),
                node.bound()
            ));
        }
        Ok(())
    }
}

fn jobs_json(jobs: &[Job]) -> String {
    let cells: Vec<String> = jobs.iter().map(|j| j.to_string()).collect();
    format!("[{}]", cells.join(", "))
}

fn jobs_from_json(value: &Json, what: &str) -> Result<Vec<Job>, String> {
    value
        .as_array(what)?
        .iter()
        .map(|v| v.as_int(what))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::member_models;
    use crate::fleet::{effective_chunk, fleet_member_specs};
    use fsp::taillard::generate;

    fn models(devices: usize, hetero: bool) -> Vec<MemberModel> {
        member_models(
            &fleet_member_specs(devices, hetero),
            &GpuSolverConfig::default(),
            12,
            6,
        )
    }

    #[test]
    fn seeded_plans_are_reproducible_and_leave_survivors() {
        for members in 1..=6 {
            for seed in 0..8u64 {
                let a = FailurePlan::seeded(seed, members);
                let b = FailurePlan::seeded(seed, members);
                assert_eq!(a, b);
                assert_eq!(a.events().len(), members / 2);
                a.assert_fits(members);
                let mut dead: Vec<usize> = a.events().iter().map(|e| e.member).collect();
                dead.sort_unstable();
                dead.dedup();
                assert_eq!(dead.len(), a.events().len(), "distinct members die");
                assert!(a.events().iter().all(|e| e.batch < SEEDED_BATCH_RANGE));
            }
        }
    }

    #[test]
    fn explicit_events_dedup_to_the_earliest_per_member() {
        let plan = FailurePlan::from_events(vec![
            FailureEvent {
                batch: 5,
                member: 1,
            },
            FailureEvent {
                batch: 2,
                member: 1,
            },
            FailureEvent {
                batch: 3,
                member: 0,
            },
        ]);
        assert_eq!(
            plan.events(),
            &[
                FailureEvent {
                    batch: 2,
                    member: 1
                },
                FailureEvent {
                    batch: 3,
                    member: 0
                },
            ]
        );
    }

    #[test]
    fn config_plans_prefer_explicit_events_over_the_seed() {
        let config = GpuSolverConfig {
            fail_seed: Some(7),
            fail_at: vec![(4, 2)],
            ..Default::default()
        };
        let plan = FailurePlan::from_config(&config, 4);
        assert_eq!(
            plan.events(),
            &[FailureEvent {
                batch: 4,
                member: 2
            }]
        );
        assert!(FailurePlan::from_config(&GpuSolverConfig::default(), 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one fleet member alive")]
    fn plans_that_kill_everyone_are_rejected() {
        let config = GpuSolverConfig {
            fail_at: vec![(0, 0), (1, 1)],
            ..Default::default()
        };
        let _ = FailurePlan::from_config(&config, 2);
    }

    #[test]
    fn redeal_partitions_the_dead_shard_over_survivors_only() {
        let models = models(4, true);
        for dead_nodes in [1usize, 7, 64, 129, 500] {
            for stealing in [false, true] {
                let survivors = [0usize, 2, 3];
                let shards = redeal_plan(dead_nodes, &survivors, &models, 32, stealing);
                // Partition of 0..dead_nodes, survivors only.
                let mut seen = vec![false; dead_nodes];
                for shard in &shards {
                    assert!(survivors.contains(&shard.device), "{shard:?}");
                    for &(start, len) in &shard.ranges {
                        for covered in &mut seen[start..start + len] {
                            assert!(!*covered, "index covered twice");
                            *covered = true;
                        }
                    }
                }
                assert!(seen.iter().all(|&c| c), "every index covered");
            }
        }
    }

    #[test]
    fn redeal_is_wave_aligned_before_stealing() {
        let models = models(4, false);
        let survivors = [1usize, 3];
        for dead_nodes in [64usize, 100, 257] {
            let chunk = 32;
            let eff = effective_chunk(dead_nodes, survivors.len(), chunk);
            let shards = redeal_plan(dead_nodes, &survivors, &models, chunk, false);
            let ragged = shards
                .iter()
                .flat_map(|s| s.ranges.iter())
                .filter(|(_, len)| len % eff != 0)
                .count();
            assert!(ragged <= 1, "at most the tail chunk may be sub-wave");
        }
    }

    #[test]
    fn recovery_critical_path_is_the_slowest_survivor() {
        let models = models(4, true);
        let shards = redeal_plan(300, &[0, 1], &models, 32, false);
        let expected = shards
            .iter()
            .map(|s| models[s.device].completion_seconds(s.nodes()))
            .fold(0.0, f64::max);
        assert_eq!(recovery_critical_seconds(&shards, &models), expected);
        assert!(expected > 0.0);
    }

    #[test]
    fn checkpoint_json_round_trips_exactly() {
        let inst = generate("t", 8, 4, 21);
        let mut cost = CostReport::default();
        cost.record_host_bound(3);
        cost.fleet_failures = 2;
        cost.fleet_redealt_nodes = 96;
        cost.fleet_recovery_nanos = 12_345;
        let checkpoint = SolveCheckpoint {
            jobs: inst.jobs(),
            machines: inst.machines(),
            upper_bound: 431,
            best_schedule: Some(vec![2, 0, 1, 3, 4, 5, 6, 7]),
            proven_bound: 410,
            cost,
            frontier: vec![(vec![2, 0], 410), (vec![1], 415), (vec![], 420)],
        };
        let parsed = SolveCheckpoint::from_json(&checkpoint.to_json()).expect("round trip");
        assert_eq!(parsed, checkpoint);
        // The frontier rebuilds into solver nodes with the stored bounds.
        let nodes = parsed.to_nodes(&inst);
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[0].prefix_vec(), vec![2, 0]);
        assert_eq!(nodes[0].bound(), 410);
        assert_eq!(nodes[2].prefix_vec(), Vec::<Job>::new());
    }

    #[test]
    fn checkpoint_without_an_incumbent_round_trips() {
        let checkpoint = SolveCheckpoint {
            jobs: 5,
            machines: 3,
            upper_bound: Time::MAX,
            best_schedule: None,
            proven_bound: Time::MAX,
            cost: CostReport::default(),
            frontier: Vec::new(),
        };
        let parsed = SolveCheckpoint::from_json(&checkpoint.to_json()).expect("round trip");
        assert_eq!(parsed, checkpoint);
    }

    #[test]
    fn checkpoint_parser_rejects_foreign_documents() {
        assert!(SolveCheckpoint::from_json("{}").is_err());
        assert!(SolveCheckpoint::from_json("[1, 2]").is_err());
        assert!(SolveCheckpoint::from_json("{\"schema_version\": \"nope\"}").is_err());
        let checkpoint = SolveCheckpoint {
            jobs: 5,
            machines: 3,
            upper_bound: 100,
            best_schedule: None,
            proven_bound: 90,
            cost: CostReport::default(),
            frontier: Vec::new(),
        };
        // A truncated cost object is rejected, not silently zero-filled.
        let mangled = checkpoint
            .to_json()
            .replace("\"batches\": 0,\n", "")
            .replace("\"waves\": 0,\n", "");
        assert!(SolveCheckpoint::from_json(&mangled).is_err());
    }

    /// A checkpoint of a real solve, paused after three batches.
    fn fresh_checkpoint() -> (Instance, SolveCheckpoint) {
        let inst = generate("t", 9, 5, 31);
        let config = GpuSolverConfig {
            pool_size: 32,
            fast_forward: true,
            checkpoint_after: Some(3),
            ..Default::default()
        };
        let outcome = crate::GpuBnbSolver::new(inst.clone(), config).solve();
        let checkpoint = outcome.checkpoint.expect("the solve pauses");
        assert!(checkpoint.best_schedule.is_some() && !checkpoint.frontier.is_empty());
        (inst, checkpoint)
    }

    #[test]
    fn a_fresh_checkpoint_checks_and_every_truncation_is_an_error() {
        let (inst, checkpoint) = fresh_checkpoint();
        let text = checkpoint.to_json();
        let parsed = SolveCheckpoint::from_json(&text).expect("the whole file parses");
        assert_eq!(parsed.check(&inst), Ok(()));
        // Every prefix cut before the final `}`.
        for cut in 0..text.trim_end().len() - 1 {
            assert!(
                SolveCheckpoint::from_json(&text[..cut]).is_err(),
                "prefix of {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn forged_checkpoints_are_rejected() {
        let (inst, checkpoint) = fresh_checkpoint();
        let forged = |edit: &dyn Fn(&mut SolveCheckpoint)| {
            let mut forged = checkpoint.clone();
            edit(&mut forged);
            forged
        };
        let parse = |c: SolveCheckpoint| SolveCheckpoint::from_json(&c.to_json());
        // Jobs outside the instance, repeated jobs and repeated counters
        // never parse.
        assert!(parse(forged(&|c| c.frontier[0].0 = vec![99, 1])).is_err());
        assert!(parse(forged(&|c| c.frontier[0].0 = vec![0, 0])).is_err());
        assert!(parse(forged(&|c| c.best_schedule = Some(vec![77, 77]))).is_err());
        assert!(parse(forged(&|c| c.best_schedule = Some(vec![0, 1, 2]))).is_err());
        let doubled = checkpoint.to_json().replacen("\"waves\"", "\"batches\"", 1);
        assert!(!doubled.contains("\"waves\"") && SolveCheckpoint::from_json(&doubled).is_err());
        // Claims the instance refutes parse, and fail `check`.
        assert_eq!(checkpoint.check(&inst), Ok(()));
        let edits: [&dyn Fn(&mut SolveCheckpoint); 7] = [
            &|c| c.upper_bound = 5,
            &|c| c.best_schedule = None,
            &|c| c.best_schedule = Some(vec![0; 9]),
            &|c| c.proven_bound = c.upper_bound + 1,
            &|c| c.machines += 1,
            // Bounds raised to the incumbent would prune the whole frontier
            // and certify the incumbent as optimal.
            &|c| {
                for node in &mut c.frontier {
                    node.1 = c.upper_bound;
                }
            },
            &|c| c.frontier.last_mut().unwrap().1 += 1,
        ];
        for edit in edits {
            assert!(forged(edit).check(&inst).is_err());
        }
        assert!(checkpoint.check(&generate("t", 10, 5, 31)).is_err());
    }
}
