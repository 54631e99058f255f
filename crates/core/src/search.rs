//! Pluggable search strategies over a template space.
//!
//! The paper's exploration is an exhaustive sweep over 396 points; that
//! stops being feasible long before a production-scale space does. This
//! module decouples *which points get evaluated* from *how a point is
//! evaluated*: a [`SearchStrategy`] proposes batches of point indices,
//! the [`crate::explore::Exploration`] engine evaluates them (cached,
//! parallel, streaming into a [`crate::pareto::ParetoArchive`]) and
//! feeds the observations back so guided strategies can steer toward
//! the current front.
//!
//! Four strategies ship:
//!
//! * [`Exhaustive`] — every point, in enumeration order. The default;
//!   bit-identical results and cache keys to the classic sweep.
//! * [`NeighbourExhaustive`] ([`Exhaustive::neighbour`]) — every point,
//!   in the Gray-walk neighbour order
//!   ([`TemplateSpace::neighbour_order`]): consecutive points differ in
//!   one knob, so the schedule memo and netlist fidelity's incremental
//!   elaborator reuse the previous point's work.
//!   Same point set and per-point cache keys as [`Exhaustive`].
//! * [`RandomSample`] — a seeded uniform sample of at most `budget`
//!   distinct points. Deterministic per seed.
//! * [`HillClimb`] — an evolutionary loop: start from a random
//!   population, then mutate the template knobs (bus count, FU counts,
//!   RF set) of current-front members, one mixed-radix digit at a time,
//!   with random restarts to escape plateaus. Deterministic per seed.
//!
//! Strategies are deliberately *pure planners*: they never touch models,
//! caches or threads, so a new strategy is a single `impl` with no
//! engine knowledge beyond this module's [`SearchContext`].
//!
//! ```
//! use tta_arch::template::TemplateSpace;
//! use tta_core::explore::Exploration;
//! use tta_core::search::RandomSample;
//! use tta_workloads::suite;
//!
//! let result = Exploration::over(TemplateSpace::tiny())
//!     .workload(&suite::crypt(1))
//!     .strategy(RandomSample)
//!     .budget(3)
//!     .seed(42)
//!     .run();
//! assert!(result.evaluated.len() + result.infeasible <= 3);
//! ```

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tta_arch::template::TemplateSpace;

use crate::cache::Fingerprint;

/// One evaluated point as a strategy sees it: the space index plus the
/// 2-D sweep objectives, or `None` when the point was infeasible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Index of the point in its [`TemplateSpace`].
    pub index: usize,
    /// `(area, exec_time)`, or `None` for an infeasible point.
    pub objectives: Option<(f64, f64)>,
}

/// The engine-owned mutable search trajectory: the round counter, the
/// set of visited indices and the observation log that
/// [`SearchContext`] borrows. Extracted from the exploration loop's
/// locals so the loop and its instrumented replays drive strategies
/// the same way. There is no snapshot: an interrupted sweep resumes by
/// running again over the same [`crate::cache::SweepCache`], which
/// answers the already-evaluated chunks as hits.
#[derive(Debug, Default)]
pub struct SearchState {
    round: usize,
    seen: HashSet<usize>,
    observations: Vec<Observation>,
}

impl SearchState {
    /// A fresh trajectory: nothing visited, round 0.
    pub fn new() -> Self {
        SearchState::default()
    }

    /// Rounds started so far (what [`SearchContext::round`] reports).
    pub fn round(&self) -> usize {
        self.round
    }

    /// Marks the start of a strategy round.
    pub fn begin_round(&mut self) {
        self.round += 1;
    }

    /// Marks the current round's batch as fully evaluated. A no-op:
    /// the engine keeps no per-round snapshot. Kept so the traced
    /// per-layer replay (`perfbench/replay`), which mirrors the
    /// engine's round structure, still builds.
    pub fn finish_round(&mut self) {}

    /// Points visited or claimed by an in-flight batch (budget
    /// accounting: claimed points spend budget even if a cancellation
    /// arrives before their chunk evaluates).
    pub fn visited(&self) -> usize {
        self.seen.len()
    }

    /// Every evaluation so far, in evaluation order.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// Claims `index` for evaluation; `false` when already claimed.
    pub fn claim(&mut self, index: usize) -> bool {
        self.seen.insert(index)
    }

    /// Appends one evaluation outcome.
    pub fn record(&mut self, observation: Observation) {
        self.observations.push(observation);
    }

    /// Builds the read-only view a strategy plans from.
    pub fn context<'a>(
        &'a self,
        space: &'a TemplateSpace,
        seed: u64,
        remaining: usize,
        front: &'a [usize],
    ) -> SearchContext<'a> {
        SearchContext::new(
            space,
            seed,
            self.round,
            remaining,
            &self.observations,
            front,
            &self.seen,
        )
    }
}

/// Everything a strategy may consult when planning its next batch.
///
/// Built fresh by the engine before each [`SearchStrategy::next_batch`]
/// call; all views are read-only borrows of engine state.
pub struct SearchContext<'a> {
    space: &'a TemplateSpace,
    seed: u64,
    round: usize,
    remaining: usize,
    observations: &'a [Observation],
    front: &'a [usize],
    evaluated: &'a HashSet<usize>,
}

impl<'a> SearchContext<'a> {
    /// Assembles a context (engine-side; strategies only read it).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        space: &'a TemplateSpace,
        seed: u64,
        round: usize,
        remaining: usize,
        observations: &'a [Observation],
        front: &'a [usize],
        evaluated: &'a HashSet<usize>,
    ) -> Self {
        SearchContext {
            space,
            seed,
            round,
            remaining,
            observations,
            front,
            evaluated,
        }
    }

    /// The space being searched.
    pub fn space(&self) -> &TemplateSpace {
        self.space
    }

    /// The run's RNG seed ([`crate::explore::Exploration::seed`],
    /// default 0). Strategies must derive all randomness from it.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Batches already issued (0 on the first call).
    pub fn round(&self) -> usize {
        self.round
    }

    /// Evaluations left in the budget. Proposing more than this is
    /// harmless — the engine truncates — but wasteful.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Every evaluation so far, in evaluation order.
    pub fn observations(&self) -> &[Observation] {
        self.observations
    }

    /// Space indices of the points currently on the Pareto front.
    pub fn front(&self) -> &[usize] {
        self.front
    }

    /// Whether the point at `index` has already been evaluated (such
    /// proposals are filtered by the engine and spend no budget).
    pub fn is_evaluated(&self, index: usize) -> bool {
        self.evaluated.contains(&index)
    }
}

/// A search strategy: plans which template-space points to evaluate.
///
/// The engine calls [`SearchStrategy::next_batch`] in a loop, evaluates
/// the fresh indices of each batch (already-seen and out-of-range
/// proposals are dropped; the batch is truncated to the remaining
/// budget), and stops when the strategy returns an empty batch or the
/// budget runs out. Strategies must be deterministic functions of the
/// context — in particular of [`SearchContext::seed`] — so that a
/// repeated run reproduces bit-identical results.
pub trait SearchStrategy {
    /// Short machine-readable name (`exhaustive`, `random`, …), used in
    /// CLI flags, result metadata and cache fingerprints.
    fn name(&self) -> &'static str;

    /// Salt folded into the sweep-cache content address, so sampled
    /// runs never share cache entries with exhaustive ones. `None`
    /// (only [`Exhaustive`] returns it) keeps the classic cache keys,
    /// preserving warm-cache bit-identity with pre-strategy sweeps.
    fn cache_salt(&self) -> Option<u64>;

    /// The next batch of point indices to evaluate. Empty ⇒ done.
    fn next_batch(&mut self, ctx: &SearchContext<'_>) -> Vec<usize>;

    /// The order in which the engine should *evaluate* each planned
    /// batch. [`WalkOrder::Enumeration`] (the default) evaluates in
    /// proposal order; [`WalkOrder::Neighbour`] re-sorts every batch by
    /// [`TemplateSpace::neighbour_rank`] so consecutive evaluations
    /// differ in one template knob. The order changes *when* a point is
    /// evaluated, never *whether* — budget truncation happens before the
    /// re-sort — and per-point cache keys are order-independent.
    fn walk_order(&self) -> WalkOrder {
        WalkOrder::Enumeration
    }
}

/// How a strategy asks the engine to order each batch's evaluations —
/// see [`SearchStrategy::walk_order`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalkOrder {
    /// Evaluate in the order the strategy proposed.
    #[default]
    Enumeration,
    /// Re-sort each batch into the Gray-walk neighbour order of the
    /// space ([`TemplateSpace::neighbour_order`]).
    Neighbour,
}

// ---------------------------------------------------------------------
// Exhaustive
// ---------------------------------------------------------------------

/// The classic full sweep: one batch holding every point in enumeration
/// order. Results and cache keys are bit-identical to the pre-strategy
/// engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exhaustive;

impl Exhaustive {
    /// The same full sweep, evaluated in Gray-walk neighbour order —
    /// see [`NeighbourExhaustive`].
    pub fn neighbour() -> NeighbourExhaustive {
        NeighbourExhaustive
    }
}

impl SearchStrategy for Exhaustive {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn cache_salt(&self) -> Option<u64> {
        None
    }

    fn next_batch(&mut self, ctx: &SearchContext<'_>) -> Vec<usize> {
        if ctx.round() > 0 {
            return Vec::new();
        }
        // Propose no more than the budget can evaluate: a budgeted run
        // over a 10⁷-point space must allocate O(budget), not O(space).
        // The evaluated prefix is identical either way — the engine
        // truncates at the budget — so results are unchanged.
        (0..ctx.space().len()).take(ctx.remaining()).collect()
    }
}

/// The full sweep in neighbour (Gray-walk) order: every point exactly
/// once, with consecutive evaluations differing in exactly one template
/// knob ([`TemplateSpace::neighbour_order`]). The point *set* is that of
/// [`Exhaustive`], so the cache salt is `None` too: per-point cache
/// addresses depend only on the architecture, never on visit order, and
/// a neighbour-order sweep produces a byte-identical cache file.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeighbourExhaustive;

impl SearchStrategy for NeighbourExhaustive {
    fn name(&self) -> &'static str {
        "exhaustive-neighbour"
    }

    fn cache_salt(&self) -> Option<u64> {
        None
    }

    fn next_batch(&mut self, ctx: &SearchContext<'_>) -> Vec<usize> {
        if ctx.round() > 0 {
            return Vec::new();
        }
        // Budget-bounded like [`Exhaustive`]: a budgeted run proposes
        // exactly the first `remaining` steps of the Gray walk — a
        // contiguous rank prefix, so every step after the first changes
        // one knob.
        ctx.space()
            .neighbour_order()
            .take(ctx.remaining())
            .collect()
    }

    fn walk_order(&self) -> WalkOrder {
        WalkOrder::Neighbour
    }
}

// ---------------------------------------------------------------------
// RandomSample
// ---------------------------------------------------------------------

/// A seeded uniform sample of at most `budget` distinct points.
///
/// With a budget covering the whole space this degenerates to the
/// exhaustive order (every index, ascending); otherwise it draws
/// distinct indices with a [`StdRng`] seeded from the run seed —
/// rejection sampling while the sample is sparse, a partial
/// Fisher–Yates shuffle once it is not, so huge spaces never
/// materialise an index vector they don't need.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomSample;

impl SearchStrategy for RandomSample {
    fn name(&self) -> &'static str {
        "random"
    }

    fn cache_salt(&self) -> Option<u64> {
        Some(Fingerprint::new().str("random").finish())
    }

    fn next_batch(&mut self, ctx: &SearchContext<'_>) -> Vec<usize> {
        if ctx.round() > 0 {
            return Vec::new();
        }
        let n = ctx.space().len();
        let k = ctx.remaining().min(n);
        if k == n {
            return (0..n).collect();
        }
        let mut rng = StdRng::seed_from_u64(ctx.seed());
        sample_distinct(&mut rng, n, k)
    }
}

/// Above this space size the dense branch of [`sample_distinct`] stops
/// materialising a full `0..n` index vector (10⁷ indices = 80 MB) and
/// samples the *complement* instead. Historical spaces (paper: 396
/// points) sit far below the limit, so their seeded draws are
/// bit-identical to every earlier release.
const DENSE_MATERIALISE_LIMIT: usize = 1 << 20;

/// `k` distinct values from `0..n`, deterministically per seed: in draw
/// order for the sparse and small-dense branches, ascending for the
/// huge-dense branch (`k·2 > n` and `n > DENSE_MATERIALISE_LIMIT`,
/// which samples the excluded complement instead of shuffling an O(n)
/// index vector). Memory is O(k) + O(n−k) — never O(n) beyond the
/// returned sample itself.
///
/// # Panics
///
/// Panics when `k > n` — there are not `k` distinct values to draw. A
/// real assert, not a `debug_assert`: in a release build a violation
/// would otherwise loop forever in the rejection-sampling branch
/// (every draw is a duplicate once all `n` values are out).
fn sample_distinct(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    assert!(
        k <= n,
        "sample_distinct: cannot draw {k} distinct values from 0..{n}"
    );
    if k * 2 <= n {
        // Sparse: rejection sampling — O(k) memory, no index vector.
        let mut chosen = HashSet::with_capacity(k);
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let i = rng.random_range(0..n as u64) as usize;
            if chosen.insert(i) {
                out.push(i);
            }
        }
        out
    } else if n <= DENSE_MATERIALISE_LIMIT {
        // Dense but small: partial Fisher–Yates over the full index
        // range — kept bit-identical for the historical spaces.
        let mut indices: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + rng.random_range(0..(n - i) as u64) as usize;
            indices.swap(i, j);
        }
        indices.truncate(k);
        indices
    } else {
        // Dense *and* huge: the excluded set is the sparse side —
        // rejection-sample the n−k indices to drop, emit the rest
        // ascending. O(n) time (one pass), O(n−k) extra memory.
        let drop = n - k;
        let mut excluded = HashSet::with_capacity(drop);
        while excluded.len() < drop {
            excluded.insert(rng.random_range(0..n as u64) as usize);
        }
        (0..n).filter(|i| !excluded.contains(i)).collect()
    }
}

// ---------------------------------------------------------------------
// HillClimb
// ---------------------------------------------------------------------

/// Evolutionary hill-climbing over the template knobs.
///
/// Round 0 evaluates a random population. Every later round takes the
/// space indices of the *current Pareto front* (the engine's streaming
/// archive), decodes each into its mixed-radix knob digits
/// ([`TemplateSpace::coords`]: buses, ALUs, CMPs, MULs, immediates, RF
/// set) and proposes unseen single-knob mutants; whatever slack remains
/// in the batch is filled with random restarts so plateaus and
/// infeasible pockets cannot stall the search. The strategy gives up —
/// returns an empty batch — when a bounded number of draws finds
/// nothing unseen, which also makes it terminate cleanly on small
/// spaces it has fully covered.
#[derive(Debug, Clone)]
pub struct HillClimb {
    /// Points proposed per generation.
    batch: usize,
    rng: Option<StdRng>,
}

impl HillClimb {
    /// Default generation size.
    pub const DEFAULT_BATCH: usize = 16;

    /// A climber proposing `batch` points per generation.
    pub fn with_batch(batch: usize) -> Self {
        HillClimb {
            batch: batch.max(1),
            rng: None,
        }
    }

    /// One single-knob mutant of `index`, or `None` when no knob has an
    /// alternative value.
    fn mutate(rng: &mut StdRng, space: &TemplateSpace, index: usize) -> Option<usize> {
        let radices = space.knob_radices();
        let movable: Vec<usize> = (0..radices.len()).filter(|&d| radices[d] > 1).collect();
        if movable.is_empty() {
            return None;
        }
        let mut coords = space.coords(index);
        let dim = movable[rng.random_range(0..movable.len() as u64) as usize];
        // Uniform over the *other* digit values of that knob.
        let mut digit = rng.random_range(0..(radices[dim] - 1) as u64) as usize;
        if digit >= coords[dim] {
            digit += 1;
        }
        coords[dim] = digit;
        Some(space.index_of(coords))
    }
}

impl Default for HillClimb {
    fn default() -> Self {
        HillClimb::with_batch(Self::DEFAULT_BATCH)
    }
}

impl SearchStrategy for HillClimb {
    fn name(&self) -> &'static str {
        "hillclimb"
    }

    fn cache_salt(&self) -> Option<u64> {
        Some(
            Fingerprint::new()
                .str("hillclimb")
                .u64(self.batch as u64)
                .finish(),
        )
    }

    fn next_batch(&mut self, ctx: &SearchContext<'_>) -> Vec<usize> {
        let n = ctx.space().len();
        if n == 0 {
            return Vec::new();
        }
        let rng = self
            .rng
            .get_or_insert_with(|| StdRng::seed_from_u64(ctx.seed()));
        let want = self.batch.min(ctx.remaining());
        let mut fresh: Vec<usize> = Vec::with_capacity(want);
        let mut proposed: HashSet<usize> = HashSet::with_capacity(want);
        // Bounded draw attempts: enough to get past collisions on a
        // healthy space, small enough to terminate fast on an exhausted
        // one.
        let mut attempts = (want * 16).max(64);
        // Parent pool: the current front; empty on round 0 (or when
        // everything so far was infeasible) ⇒ pure random exploration.
        let parents = ctx.front();
        while fresh.len() < want && attempts > 0 {
            attempts -= 1;
            let candidate = if parents.is_empty() {
                rng.random_range(0..n as u64) as usize
            } else {
                let parent = parents[rng.random_range(0..parents.len() as u64) as usize];
                match Self::mutate(rng, ctx.space(), parent) {
                    Some(m) if !ctx.is_evaluated(m) => m,
                    // Neighbourhood exhausted or degenerate: restart.
                    _ => rng.random_range(0..n as u64) as usize,
                }
            };
            if !ctx.is_evaluated(candidate) && proposed.insert(candidate) {
                fresh.push(candidate);
            }
        }
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_parts() -> (TemplateSpace, Vec<Observation>, Vec<usize>, HashSet<usize>) {
        (
            TemplateSpace::paper_default(),
            Vec::new(),
            Vec::new(),
            HashSet::new(),
        )
    }

    fn ctx<'a>(
        space: &'a TemplateSpace,
        seed: u64,
        round: usize,
        remaining: usize,
        obs: &'a [Observation],
        front: &'a [usize],
        evaluated: &'a HashSet<usize>,
    ) -> SearchContext<'a> {
        SearchContext::new(space, seed, round, remaining, obs, front, evaluated)
    }

    #[test]
    fn exhaustive_proposes_every_index_once() {
        let (space, obs, front, seen) = ctx_parts();
        let mut s = Exhaustive;
        let batch = s.next_batch(&ctx(&space, 0, 0, usize::MAX, &obs, &front, &seen));
        assert_eq!(batch, (0..space.len()).collect::<Vec<_>>());
        let done = s.next_batch(&ctx(&space, 0, 1, usize::MAX, &obs, &front, &seen));
        assert!(done.is_empty());
        assert!(s.cache_salt().is_none());
    }

    #[test]
    fn neighbour_exhaustive_proposes_the_gray_permutation() {
        let (space, obs, front, seen) = ctx_parts();
        let mut s = Exhaustive::neighbour();
        let batch = s.next_batch(&ctx(&space, 0, 0, usize::MAX, &obs, &front, &seen));
        assert_eq!(batch, space.neighbour_order().collect::<Vec<_>>());
        let mut sorted = batch;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..space.len()).collect::<Vec<_>>());
        assert!(
            s.cache_salt().is_none(),
            "same cache namespace as Exhaustive"
        );
        assert_eq!(s.walk_order(), WalkOrder::Neighbour);
        assert_eq!(Exhaustive.walk_order(), WalkOrder::Enumeration);
        let done = s.next_batch(&ctx(&space, 0, 1, usize::MAX, &obs, &front, &seen));
        assert!(done.is_empty());
    }

    #[test]
    fn random_sample_is_deterministic_distinct_and_budgeted() {
        let (space, obs, front, seen) = ctx_parts();
        let batch = |seed| RandomSample.next_batch(&ctx(&space, seed, 0, 10, &obs, &front, &seen));
        let a = batch(42);
        let b = batch(42);
        assert_eq!(a, b, "same seed ⇒ same sample");
        assert_eq!(a.len(), 10);
        let distinct: HashSet<_> = a.iter().collect();
        assert_eq!(distinct.len(), a.len(), "indices must be distinct");
        assert!(a.iter().all(|&i| i < space.len()));
        assert_ne!(batch(42), batch(43), "different seed ⇒ different sample");
    }

    #[test]
    fn random_sample_covers_the_space_when_budget_allows() {
        let (space, obs, front, seen) = ctx_parts();
        let batch =
            RandomSample.next_batch(&ctx(&space, 7, 0, space.len() + 10, &obs, &front, &seen));
        assert_eq!(batch, (0..space.len()).collect::<Vec<_>>());
    }

    #[test]
    fn dense_sampling_stays_distinct() {
        // k > n/2 exercises the Fisher–Yates branch.
        let mut rng = StdRng::seed_from_u64(1);
        let s = sample_distinct(&mut rng, 10, 9);
        assert_eq!(s.len(), 9);
        assert_eq!(s.iter().collect::<HashSet<_>>().len(), 9);
    }

    #[test]
    #[should_panic(expected = "cannot draw")]
    fn oversized_sample_panics_instead_of_spinning() {
        // k > n used to be a debug_assert only: a release build would
        // hang in rejection sampling. Now it fails loudly everywhere.
        let mut rng = StdRng::seed_from_u64(1);
        let _ = sample_distinct(&mut rng, 4, 5);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// `RandomSample` with a budget covering the whole space
        /// degenerates to the exhaustive index set — for any seed and
        /// any amount of budget slack.
        #[test]
        fn full_budget_random_equals_exhaustive(seed in 0u64..1000, slack in 0usize..40) {
            let space = TemplateSpace::paper_default();
            let (obs, front, seen) = (Vec::new(), Vec::new(), HashSet::new());
            let random = RandomSample.next_batch(&SearchContext::new(
                &space, seed, 0, space.len() + slack, &obs, &front, &seen,
            ));
            let mut exhaustive = Exhaustive;
            let full = exhaustive.next_batch(&SearchContext::new(
                &space, seed, 0, usize::MAX, &obs, &front, &seen,
            ));
            proptest::prop_assert_eq!(random, full);
        }
    }

    /// A 10⁷-point space (10 values on seven knobs): big enough that
    /// any O(|space|) allocation in a planner would dominate the test's
    /// memory and time budget.
    fn ten_million_points() -> TemplateSpace {
        let space = TemplateSpace {
            width: 8,
            buses: (1..=10).collect(),
            clusters: (1..=10).collect(),
            alus: (1..=10).collect(),
            cmps: (1..=10).collect(),
            muls: (0..10).collect(),
            imms: (1..=10).collect(),
            pipes: vec![1],
            rf_banks: vec![1],
            rf_sets: (0..10).map(|k| vec![(4 + k, 1, 2)]).collect(),
        };
        assert_eq!(space.len(), 10_000_000);
        space
    }

    #[test]
    fn budgeted_batches_stay_small_on_a_ten_million_point_space() {
        // Regression: Exhaustive/NeighbourExhaustive used to collect
        // the whole index range per batch and RandomSample's dense
        // branch shuffled a full O(n) vector — a budgeted sweep of a
        // 10⁷-point space allocated 80 MB before evaluating a single
        // point. Every strategy must now propose O(budget) indices.
        let space = ten_million_points();
        let (obs, front, seen) = (Vec::new(), Vec::new(), HashSet::new());
        let budget = 512;
        let strategies: Vec<Box<dyn SearchStrategy>> = vec![
            Box::new(Exhaustive),
            Box::new(Exhaustive::neighbour()),
            Box::new(RandomSample),
            Box::new(HillClimb::default()),
        ];
        for mut s in strategies {
            let batch = s.next_batch(&ctx(&space, 11, 0, budget, &obs, &front, &seen));
            assert!(
                batch.len() <= budget,
                "{} proposed {} indices for a budget of {budget}",
                s.name(),
                batch.len()
            );
            assert!(!batch.is_empty(), "{} proposed nothing", s.name());
            assert!(batch.iter().all(|&i| i < space.len()));
            let distinct: HashSet<_> = batch.iter().collect();
            assert_eq!(distinct.len(), batch.len(), "{}", s.name());
        }
        // The budgeted Gray prefix is exactly ranks 0..budget, so the
        // engine sees a contiguous walk.
        let prefix =
            Exhaustive::neighbour().next_batch(&ctx(&space, 0, 0, budget, &obs, &front, &seen));
        assert_eq!(
            prefix,
            space.neighbour_order().take(budget).collect::<Vec<_>>()
        );
    }

    #[test]
    fn huge_dense_sampling_avoids_the_index_vector() {
        // k·2 > n above DENSE_MATERIALISE_LIMIT: the complement branch.
        let n = DENSE_MATERIALISE_LIMIT + 10;
        let k = n - 3;
        let mut rng = StdRng::seed_from_u64(5);
        let s = sample_distinct(&mut rng, n, k);
        assert_eq!(s.len(), k);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "ascending and distinct");
        assert!(s.iter().all(|&i| i < n));
        // Deterministic per seed.
        let mut rng2 = StdRng::seed_from_u64(5);
        assert_eq!(s, sample_distinct(&mut rng2, n, k));
    }

    #[test]
    fn hillclimb_mutates_one_knob_at_a_time() {
        let space = TemplateSpace::paper_default();
        let mut rng = StdRng::seed_from_u64(3);
        for index in [0, 5, space.len() - 1] {
            for _ in 0..32 {
                let m = HillClimb::mutate(&mut rng, &space, index).expect("knobs movable");
                assert_ne!(m, index, "a mutant must differ from its parent");
                assert!(m < space.len());
                let (a, b) = (space.coords(index), space.coords(m));
                let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count();
                assert_eq!(differing, 1, "exactly one knob digit moves");
            }
        }
    }

    #[test]
    fn hillclimb_explores_randomly_then_climbs_the_front() {
        let (space, obs, front, seen) = ctx_parts();
        let mut s = HillClimb::default();
        let scouts = s.next_batch(&ctx(&space, 9, 0, usize::MAX, &obs, &front, &seen));
        assert_eq!(scouts.len(), HillClimb::DEFAULT_BATCH);
        // Feed a front back; the next generation is fresh points only.
        let seen: HashSet<usize> = scouts.iter().copied().collect();
        let front = vec![scouts[0]];
        let obs: Vec<Observation> = scouts
            .iter()
            .map(|&index| Observation {
                index,
                objectives: Some((1.0, 1.0)),
            })
            .collect();
        let next = s.next_batch(&ctx(&space, 9, 1, usize::MAX, &obs, &front, &seen));
        assert!(!next.is_empty());
        assert!(next.iter().all(|i| !seen.contains(i)), "{next:?}");
    }

    #[test]
    fn hillclimb_terminates_on_an_exhausted_space() {
        let space = TemplateSpace::tiny();
        let seen: HashSet<usize> = (0..space.len()).collect();
        let obs: Vec<Observation> = (0..space.len())
            .map(|index| Observation {
                index,
                objectives: None,
            })
            .collect();
        let front = Vec::new();
        let mut s = HillClimb::default();
        let batch = s.next_batch(&ctx(&space, 0, 1, usize::MAX, &obs, &front, &seen));
        assert!(batch.is_empty(), "nothing unseen remains");
    }

    #[test]
    fn strategy_salts_separate_cache_namespaces() {
        assert_ne!(RandomSample.cache_salt(), HillClimb::default().cache_salt());
        assert_ne!(
            HillClimb::with_batch(8).cache_salt(),
            HillClimb::with_batch(9).cache_salt(),
            "generation size is part of the identity"
        );
    }
}
