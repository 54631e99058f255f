//! Template construction and design-space enumeration.
//!
//! The MOVE framework explores architectures by varying "the exact match
//! of the number and type of functional units, register files, sockets
//! and busses". [`TemplateBuilder`] builds one concrete instance with
//! round-robin socket→bus assignment; [`TemplateSpace`] enumerates a
//! bounded space of them for the exploration driver.

use crate::arch::{Architecture, BusId, FuInstance, FuKind, RfInstance};

/// Builder for a single [`Architecture`].
///
/// Ports are attached to buses round-robin in declaration order, which is
/// how port/bus sharing (and with it the eq. (10) penalty) arises
/// naturally when a template has more connectors than buses — exactly the
/// effect Figure 6 of the paper illustrates.
#[derive(Debug)]
pub struct TemplateBuilder {
    name: String,
    width: usize,
    buses: usize,
    next_bus: u8,
    fus: Vec<FuInstance>,
    rfs: Vec<RfInstance>,
    counters: std::collections::HashMap<&'static str, usize>,
}

impl TemplateBuilder {
    /// Starts a template called `name` with the given datapath width and
    /// bus count.
    pub fn new(name: impl Into<String>, width: usize, buses: usize) -> Self {
        TemplateBuilder {
            name: name.into(),
            width,
            buses,
            next_bus: 0,
            fus: Vec::new(),
            rfs: Vec::new(),
            counters: std::collections::HashMap::new(),
        }
    }

    fn take_bus(&mut self) -> BusId {
        let b = BusId(self.next_bus);
        self.next_bus = (self.next_bus + 1) % self.buses.max(1) as u8;
        b
    }

    /// Adds a functional unit of `kind`, assigning its sockets to buses
    /// round-robin. Instance names are `alu0`, `alu1`, `cmp0`, ….
    pub fn fu(mut self, kind: FuKind) -> Self {
        let base = match kind {
            FuKind::Alu => "alu",
            FuKind::Cmp => "cmp",
            FuKind::Mul => "mul",
            FuKind::LdSt => "ldst",
            FuKind::Pc => "pc",
            FuKind::Immediate => "imm",
        };
        let n = self.counters.entry(base).or_insert(0);
        let name = format!("{base}{n}");
        *n += 1;
        let operand_bus = self.take_bus();
        let trigger_bus = if kind == FuKind::Immediate {
            operand_bus
        } else {
            self.take_bus()
        };
        let result_bus = self.take_bus();
        self.fus.push(FuInstance {
            kind,
            name,
            operand_bus,
            trigger_bus,
            result_bus,
        });
        self
    }

    /// Adds a register file with `regs` registers, `nin` write and `nout`
    /// read ports.
    pub fn rf(mut self, regs: usize, nin: usize, nout: usize) -> Self {
        let n = self.counters.entry("rf").or_insert(0);
        let name = format!("rf{}", *n + 1); // RF1, RF2 naming like the paper
        *n += 1;
        let write_ports = (0..nin).map(|_| self.take_bus()).collect();
        let read_ports = (0..nout).map(|_| self.take_bus()).collect();
        self.rfs.push(RfInstance {
            name,
            regs,
            write_ports,
            read_ports,
        });
        self
    }

    /// Finalises the architecture (not yet validated — the exploration
    /// filters invalid points).
    pub fn build(self) -> Architecture {
        Architecture {
            name: self.name,
            width: self.width,
            buses: self.buses,
            fus: self.fus,
            rfs: self.rfs,
        }
    }
}

/// Number of template knobs — the length of [`TemplateSpace::knob_radices`],
/// [`TemplateSpace::coords`] and [`TemplateSpace::index_of`] arrays.
pub const KNOBS: usize = 9;

/// Bounds of the enumerated design space.
///
/// Three knobs are *hierarchical* (introduced for the million-point
/// `huge` preset) and default to the single value `1`, which reproduces
/// the historical flat space exactly — same enumeration order, same
/// point labels:
///
/// - `clusters` multiplies the interconnect: a point with `b` buses and
///   `c` clusters builds a machine with `b·c` buses (modelled as `c`
///   clusters of `b` buses each; the round-robin socket assignment
///   spreads ports across all of them).
/// - `pipes` is a per-FU pipelining depth, modelled as independently
///   socketed replicas of every *compute* FU (ALU/CMP/MUL) — the
///   annotation tables have no pipeline-depth axis, so depth `p` costs
///   `p` units of area/test and buys `p` issue slots.
/// - `rf_banks` splits every register file of the chosen RF set into
///   `k` banks of `⌈regs/k⌉` registers (min 2) with the same port
///   geometry per bank.
#[derive(Debug, Clone)]
pub struct TemplateSpace {
    /// Datapath width (the paper uses 16).
    pub width: usize,
    /// Per-cluster bus counts to try.
    pub buses: Vec<usize>,
    /// Interconnect cluster counts to try (≥ 1; total buses = buses ×
    /// clusters).
    pub clusters: Vec<usize>,
    /// ALU counts to try (≥ 1).
    pub alus: Vec<usize>,
    /// CMP counts to try.
    pub cmps: Vec<usize>,
    /// MUL counts to try.
    pub muls: Vec<usize>,
    /// Immediate-unit counts to try (≥ 1).
    pub imms: Vec<usize>,
    /// Per-FU pipelining depths to try (≥ 1; modelled as compute-FU
    /// replication).
    pub pipes: Vec<usize>,
    /// Register-file bank counts to try (≥ 1).
    pub rf_banks: Vec<usize>,
    /// Register-file geometries `(regs, nin, nout)` per RF; each entry is
    /// a complete RF set for the machine.
    pub rf_sets: Vec<Vec<(usize, usize, usize)>>,
}

impl TemplateSpace {
    /// The space used to regenerate Figure 2/8: 16-bit machines with 1–4
    /// buses, 1–3 ALUs, 0–1 extra CMP/MUL, and three RF configurations.
    pub fn paper_default() -> Self {
        TemplateSpace {
            width: 16,
            buses: vec![1, 2, 3, 4],
            clusters: vec![1],
            alus: vec![1, 2, 3],
            cmps: vec![1, 2],
            muls: vec![0, 1],
            imms: vec![1],
            pipes: vec![1],
            rf_banks: vec![1],
            rf_sets: vec![
                vec![(8, 1, 2)],
                vec![(8, 1, 2), (12, 1, 2)],
                vec![(16, 2, 2)],
            ],
        }
    }

    /// A reduced 8-bit space that keeps every effect visible but
    /// back-annotates in seconds — used by tests, examples and CI smoke
    /// runs. The MUL knob is part of the space so multiplier-hungry
    /// workloads (FFT, FIR, DCT) have feasible points here too.
    pub fn fast_default() -> Self {
        TemplateSpace {
            width: 8,
            buses: vec![1, 2, 3],
            clusters: vec![1],
            alus: vec![1, 2],
            cmps: vec![1],
            muls: vec![0, 1],
            imms: vec![1],
            pipes: vec![1],
            rf_banks: vec![1],
            rf_sets: vec![vec![(8, 1, 2)], vec![(4, 1, 1)]],
        }
    }

    /// A tiny space for unit tests (a handful of points).
    pub fn tiny() -> Self {
        TemplateSpace {
            width: 8,
            buses: vec![1, 2],
            clusters: vec![1],
            alus: vec![1],
            cmps: vec![1],
            muls: vec![0],
            imms: vec![1],
            pipes: vec![1],
            rf_banks: vec![1],
            rf_sets: vec![vec![(8, 1, 2)]],
        }
    }

    /// The hierarchical million-point space: every flat knob of
    /// [`TemplateSpace::fast_default`] widened, plus the three
    /// hierarchical knobs (interconnect clustering, per-FU pipelining
    /// depth, RF banking). Exactly `2^20 = 1_048_576` points — far too
    /// large to sweep exhaustively, which is the point: this is the
    /// space where budgeted strategies, the schedule memo and the Gray
    /// neighbour walk earn their keep.
    pub fn huge() -> Self {
        let mut rf_sets = Vec::new();
        for regs in [4usize, 8, 16, 32] {
            for (nin, nout) in [(1usize, 1usize), (1, 2), (2, 2), (2, 3)] {
                rf_sets.push(vec![(regs, nin, nout)]);
            }
        }
        TemplateSpace {
            width: 8,
            buses: vec![1, 2, 3, 4],
            clusters: vec![1, 2, 3, 4],
            alus: vec![1, 2, 3, 4, 5, 6, 7, 8],
            cmps: vec![1, 2, 3, 4],
            muls: vec![0, 1, 2, 3],
            imms: vec![1, 2],
            pipes: vec![1, 2, 3, 4],
            rf_banks: vec![1, 2, 3, 4],
            rf_sets,
        }
    }

    /// Enumerates every architecture in the space (PC and LD/ST are always
    /// included once, as the paper does).
    ///
    /// This materialises the whole space as a `Vec`; prefer
    /// [`TemplateSpace::points`] when the space is large — the sweep
    /// engine and search strategies never need the full vector.
    pub fn enumerate(&self) -> Vec<Architecture> {
        self.points().collect()
    }

    /// A lazy, indexed iterator over every architecture of the space, in
    /// the same order as [`TemplateSpace::enumerate`]. The iterator is
    /// [`ExactSizeIterator`] and double-ended, and
    /// [`TemplateSpace::point`] gives random access by index, so no
    /// consumer ever needs the materialised `Vec`.
    pub fn points(&self) -> Points<'_> {
        Points {
            space: self,
            next: 0,
            end: self.len(),
        }
    }

    /// The number of choices per template knob, in index order (most
    /// significant first): buses, clusters, ALUs, CMPs, MULs,
    /// immediates, pipes, RF banks, RF sets. A point index is the
    /// mixed-radix number over these radices — search strategies mutate
    /// the digits to move through the space. The hierarchical knobs sit
    /// where a radix of 1 leaves the historical flat enumeration order
    /// (and every point index) unchanged.
    pub fn knob_radices(&self) -> [usize; KNOBS] {
        [
            self.buses.len(),
            self.clusters.len(),
            self.alus.len(),
            self.cmps.len(),
            self.muls.len(),
            self.imms.len(),
            self.pipes.len(),
            self.rf_banks.len(),
            self.rf_sets.len(),
        ]
    }

    /// Decomposes a point index into its per-knob digits (positions into
    /// the knob vectors), in [`TemplateSpace::knob_radices`] order.
    ///
    /// # Panics
    ///
    /// Panics when `index >= self.len()`.
    pub fn coords(&self, index: usize) -> [usize; KNOBS] {
        assert!(
            index < self.len(),
            "point index {index} out of bounds for a {}-point space",
            self.len()
        );
        let radices = self.knob_radices();
        let mut rest = index;
        let mut digits = [0usize; KNOBS];
        for (d, &radix) in digits.iter_mut().zip(&radices).rev() {
            *d = rest % radix;
            rest /= radix;
        }
        digits
    }

    /// Recomposes per-knob digits into a point index — the inverse of
    /// [`TemplateSpace::coords`].
    ///
    /// # Panics
    ///
    /// Panics when any digit is outside its knob's radix.
    pub fn index_of(&self, coords: [usize; KNOBS]) -> usize {
        let radices = self.knob_radices();
        let mut index = 0usize;
        for (i, (&d, &radix)) in coords.iter().zip(&radices).enumerate() {
            assert!(d < radix, "knob {i} digit {d} exceeds radix {radix}");
            index = index * radix + d;
        }
        index
    }

    /// Builds the architecture at `index` without enumerating any other
    /// point — random access into [`TemplateSpace::enumerate`] order.
    ///
    /// # Panics
    ///
    /// Panics when `index >= self.len()`.
    pub fn point(&self, index: usize) -> Architecture {
        let [bi, cli, ai, ci, mi, ii, pi, ki, ri] = self.coords(index);
        let (nb, ncl, na, nc, nm, ni, np, nk) = (
            self.buses[bi],
            self.clusters[cli],
            self.alus[ai],
            self.cmps[ci],
            self.muls[mi],
            self.imms[ii],
            self.pipes[pi],
            self.rf_banks[ki],
        );
        let rfset = &self.rf_sets[ri];
        // Historical flat label; the hierarchical knobs append suffixes
        // only when non-default, so every pre-existing preset keeps its
        // exact point names (and with them its cache keys and goldens).
        let mut label = format!(
            "b{nb}a{na}c{nc}m{nm}i{ni}r{}",
            rfset
                .iter()
                .map(|(r, i, o)| format!("{r}.{i}.{o}"))
                .collect::<Vec<_>>()
                .join("_")
        );
        if ncl > 1 {
            label.push_str(&format!("x{ncl}"));
        }
        if np > 1 {
            label.push_str(&format!("p{np}"));
        }
        if nk > 1 {
            label.push_str(&format!("k{nk}"));
        }
        let mut b = TemplateBuilder::new(label, self.width, nb * ncl);
        for _ in 0..na * np {
            b = b.fu(FuKind::Alu);
        }
        for _ in 0..nc * np {
            b = b.fu(FuKind::Cmp);
        }
        for _ in 0..nm * np {
            b = b.fu(FuKind::Mul);
        }
        for _ in 0..ni {
            b = b.fu(FuKind::Immediate);
        }
        b = b.fu(FuKind::LdSt).fu(FuKind::Pc);
        for &(regs, nin, nout) in rfset {
            for _ in 0..nk {
                b = b.rf(regs.div_ceil(nk).max(2), nin, nout);
            }
        }
        b.build()
    }

    /// Size of the enumerated space.
    pub fn len(&self) -> usize {
        self.knob_radices().iter().product()
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The point index visited at position `rank` of the *neighbour
    /// order*: a reflected mixed-radix Gray walk over
    /// [`TemplateSpace::knob_radices`]. Consecutive ranks differ in
    /// exactly one knob digit, and that digit moves by exactly ±1 — so a
    /// sweep in this order changes one architectural parameter per step,
    /// which is what makes incremental evaluation (re-elaborating one
    /// component, re-using the previous scheduler view) profitable.
    ///
    /// The walk is a permutation of `0..len()`: every point is visited
    /// exactly once ([`TemplateSpace::neighbour_rank`] is the inverse).
    ///
    /// # Panics
    ///
    /// Panics when `rank >= self.len()`.
    pub fn neighbour_index(&self, rank: usize) -> usize {
        assert!(
            rank < self.len(),
            "walk rank {rank} out of bounds for a {}-point space",
            self.len()
        );
        let radices = self.knob_radices();
        // Plain mixed-radix digits of the rank, most significant first.
        let mut plain = [0usize; KNOBS];
        let mut rest = rank;
        for (d, &radix) in plain.iter_mut().zip(&radices).rev() {
            *d = rest % radix;
            rest /= radix;
        }
        // Reflected mixed-radix Gray construction: digit `i` scans
        // upwards on even passes and downwards on odd ones, where the
        // pass count is the mixed-radix *value* of the more-significant
        // plain digits (not their sum — those differ once an even radix
        // sits between two digits). Each carry then flips the scan
        // direction of exactly the digits it resets, so consecutive
        // ranks differ in one digit, by ±1.
        let mut gray = [0usize; KNOBS];
        let mut passes = 0usize;
        for i in 0..KNOBS {
            gray[i] = if passes.is_multiple_of(2) {
                plain[i]
            } else {
                radices[i] - 1 - plain[i]
            };
            passes = passes * radices[i] + plain[i];
        }
        self.index_of(gray)
    }

    /// The walk position at which [`TemplateSpace::neighbour_index`]
    /// visits `index` — the inverse permutation. Search strategies use it
    /// to re-order an arbitrary batch of points into neighbour order.
    ///
    /// # Panics
    ///
    /// Panics when `index >= self.len()`.
    pub fn neighbour_rank(&self, index: usize) -> usize {
        let radices = self.knob_radices();
        let gray = self.coords(index);
        // Undo the reflection: the pass count deciding digit `i` is the
        // value of the already-recovered plain digits `0..i`, which is
        // exactly the running rank.
        let mut rank = 0usize;
        for i in 0..KNOBS {
            let plain = if rank.is_multiple_of(2) {
                gray[i]
            } else {
                radices[i] - 1 - gray[i]
            };
            rank = rank * radices[i] + plain;
        }
        rank
    }

    /// Iterates the point indices of the space in neighbour (Gray-walk)
    /// order — see [`TemplateSpace::neighbour_index`]. The iterator is
    /// [`ExactSizeIterator`] and yields each index exactly once.
    pub fn neighbour_order(&self) -> NeighbourOrder<'_> {
        NeighbourOrder {
            space: self,
            next: 0,
            end: self.len(),
        }
    }
}

/// Iterator over point indices in neighbour (Gray-walk) order, returned
/// by [`TemplateSpace::neighbour_order`].
#[derive(Debug, Clone)]
pub struct NeighbourOrder<'a> {
    space: &'a TemplateSpace,
    next: usize,
    end: usize,
}

impl Iterator for NeighbourOrder<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.next >= self.end {
            return None;
        }
        let index = self.space.neighbour_index(self.next);
        self.next += 1;
        Some(index)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.end - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for NeighbourOrder<'_> {}

/// Lazy iterator over a [`TemplateSpace`], returned by
/// [`TemplateSpace::points`]. Yields architectures in enumeration order
/// without materialising the space.
#[derive(Debug, Clone)]
pub struct Points<'a> {
    space: &'a TemplateSpace,
    next: usize,
    end: usize,
}

impl Iterator for Points<'_> {
    type Item = Architecture;

    fn next(&mut self) -> Option<Architecture> {
        if self.next >= self.end {
            return None;
        }
        let arch = self.space.point(self.next);
        self.next += 1;
        Some(arch)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.end - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Points<'_> {}

impl DoubleEndedIterator for Points<'_> {
    fn next_back(&mut self) -> Option<Architecture> {
        if self.next >= self.end {
            return None;
        }
        self.end -= 1;
        Some(self.space.point(self.end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_matches_len() {
        let space = TemplateSpace::paper_default();
        let archs = space.enumerate();
        assert_eq!(archs.len(), space.len());
        assert_eq!(archs.len(), 4 * 3 * 2 * 2 * 3);
    }

    #[test]
    fn points_matches_enumerate_and_random_access() {
        let space = TemplateSpace::paper_default();
        let eager = space.enumerate();
        let lazy: Vec<_> = space.points().collect();
        assert_eq!(eager, lazy);
        assert_eq!(space.points().len(), space.len());
        for (i, arch) in eager.iter().enumerate() {
            assert_eq!(&space.point(i), arch, "random access at {i}");
            assert_eq!(space.index_of(space.coords(i)), i);
        }
    }

    #[test]
    fn points_iterates_from_both_ends() {
        let space = TemplateSpace::fast_default();
        let forward: Vec<_> = space.points().collect();
        let mut backward: Vec<_> = space.points().rev().collect();
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn point_rejects_out_of_range_index() {
        let space = TemplateSpace::tiny();
        let _ = space.point(space.len());
    }

    #[test]
    fn every_enumerated_architecture_validates() {
        for arch in TemplateSpace::paper_default().enumerate() {
            assert_eq!(arch.validate(), Ok(()), "{}", arch.name);
        }
    }

    #[test]
    fn round_robin_shares_buses_when_scarce() {
        // 1-bus machine: every port lands on bus0 -> maximum sharing.
        let a = TemplateBuilder::new("one", 8, 1)
            .fu(FuKind::Alu)
            .rf(4, 1, 1)
            .build();
        let alu = &a.fus[0];
        assert_eq!(alu.operand_bus, alu.trigger_bus);
        assert_eq!(crate::timing::transport_cycles(alu), 5);
        // 3-bus machine: ALU ports spread out.
        let b = TemplateBuilder::new("three", 8, 3)
            .fu(FuKind::Alu)
            .rf(4, 1, 1)
            .build();
        assert_eq!(crate::timing::transport_cycles(&b.fus[0]), 3);
    }

    #[test]
    fn neighbour_order_is_a_permutation() {
        for space in [
            TemplateSpace::paper_default(),
            TemplateSpace::fast_default(),
            TemplateSpace::tiny(),
        ] {
            let walk: Vec<usize> = space.neighbour_order().collect();
            assert_eq!(space.neighbour_order().len(), space.len());
            let mut sorted = walk.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..space.len()).collect::<Vec<_>>());
            for (rank, &index) in walk.iter().enumerate() {
                assert_eq!(space.neighbour_rank(index), rank, "inverse at {rank}");
            }
        }
    }

    #[test]
    fn neighbour_order_steps_one_knob_by_one() {
        let space = TemplateSpace::paper_default();
        let walk: Vec<usize> = space.neighbour_order().collect();
        for pair in walk.windows(2) {
            let a = space.coords(pair[0]);
            let b = space.coords(pair[1]);
            let diffs: Vec<usize> = (0..KNOBS).filter(|&k| a[k] != b[k]).collect();
            assert_eq!(diffs.len(), 1, "{a:?} -> {b:?}");
            let k = diffs[0];
            assert_eq!(a[k].abs_diff(b[k]), 1, "knob {k}: {a:?} -> {b:?}");
        }
    }

    #[test]
    fn huge_space_reaches_a_million_points() {
        let space = TemplateSpace::huge();
        assert_eq!(space.len(), 1 << 20);
        assert!(space.len() >= 1_000_000);
    }

    #[test]
    fn hierarchical_knobs_shape_the_architecture() {
        let mut space = TemplateSpace::tiny();
        space.clusters = vec![3];
        space.pipes = vec![2];
        space.rf_banks = vec![2];
        // tiny: buses [1,2], 1 ALU, 1 CMP, 0 MUL, 1 IMM, rf (8,1,2).
        let arch = space.point(0);
        assert_eq!(arch.buses, 3, "clusters multiply the 1-bus count");
        let alus = arch.fus.iter().filter(|f| f.kind == FuKind::Alu).count();
        assert_eq!(alus, 2, "pipe depth replicates compute FUs");
        assert_eq!(arch.rfs.len(), 2, "banking splits each RF");
        assert!(arch.rfs.iter().all(|r| r.regs == 4), "8 regs over 2 banks");
        assert_eq!(arch.name, "b1a1c1m0i1r8.1.2x3p2k2");
        assert_eq!(arch.validate(), Ok(()));
    }

    #[test]
    fn default_hierarchical_knobs_keep_flat_labels() {
        // The 9-knob refactor must not rename any historical point.
        let space = TemplateSpace::paper_default();
        assert_eq!(space.point(0).name, "b1a1c1m0i1r8.1.2");
        assert!(space.points().all(|a| !a.name.contains(['x', 'p', 'k'])));
    }

    #[test]
    fn huge_space_random_points_validate() {
        let space = TemplateSpace::huge();
        // A deterministic stride through the million points, including
        // both ends; full enumeration would be too slow for a unit test.
        let stride = space.len() / 97;
        for i in (0..space.len()).step_by(stride).chain([space.len() - 1]) {
            let arch = space.point(i);
            assert_eq!(arch.validate(), Ok(()), "{}", arch.name);
            assert_eq!(space.index_of(space.coords(i)), i);
            assert_eq!(
                space.neighbour_index(space.neighbour_rank(i)),
                i,
                "walk inverse at {i}"
            );
        }
    }

    #[test]
    fn huge_space_walk_prefix_steps_one_knob_by_one() {
        let space = TemplateSpace::huge();
        let walk: Vec<usize> = space.neighbour_order().take(2048).collect();
        for pair in walk.windows(2) {
            let a = space.coords(pair[0]);
            let b = space.coords(pair[1]);
            let diffs: Vec<usize> = (0..KNOBS).filter(|&k| a[k] != b[k]).collect();
            assert_eq!(diffs.len(), 1, "{a:?} -> {b:?}");
            assert_eq!(a[diffs[0]].abs_diff(b[diffs[0]]), 1);
        }
    }

    #[test]
    fn names_are_unique_and_paper_style() {
        let a = Architecture::figure9();
        assert!(a.rfs.iter().any(|r| r.name == "rf1"));
        assert!(a.rfs.iter().any(|r| r.name == "rf2"));
    }
}
