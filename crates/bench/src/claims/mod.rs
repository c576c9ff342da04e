//! The claims table: one row per claim of Pettarin et al. (PODC 2011)
//! that `exp` regenerates, in `EXPERIMENTS.md`'s index order. A row's
//! name is its module, whose `run` prints the claim's result table and
//! closes with its verdict.

use crate::common::ExpCtx;

/// One claim: its index entry and the function that regenerates it.
pub struct Claim {
    /// Index id: `E1`…`E25`, `A1`, `A2`.
    pub id: &'static str,
    /// Short name, the claim's module.
    pub name: &'static str,
    /// Title line of the printed header.
    pub title: &'static str,
    /// The paper's claim as the header states it.
    pub claim: &'static str,
    /// Flags the claim takes besides `--quick`/`--full`.
    pub flags: &'static [&'static str],
    /// Prints the claim's body and verdict line; `false` on a MISMATCH.
    pub run: fn(&ExpCtx) -> bool,
}

/// Declares each row's module and its `CLAIMS` entry, from rows of the
/// form `id name [flags]: title, claim;`.
macro_rules! claims {
    ($($id:literal $name:ident $([$($flag:literal),*])?: $title:literal, $claim:literal;)*) => {
        $(mod $name;)*

        /// Every claim, in index order.
        pub const CLAIMS: &[Claim] = &[$(Claim {
            id: $id,
            name: stringify!($name),
            title: $title,
            claim: $claim,
            flags: &[$($($flag),*)?],
            run: $name::run,
        }),*];
    };
}

claims! {
    "E1" tb_vs_n: "broadcast time vs n (fixed k, r = 0)",
        "T_B = Theta~(n/sqrt(k)) => slope of log T_B vs log n is about 1";
    "E2" tb_vs_k: "broadcast time vs k (fixed n, r = 0)",
        "T_B = Theta~(n/sqrt(k)) => slope of log T_B vs log k is about -1/2";
    "E3" tb_vs_r: "broadcast time vs r across the percolation point",
        "T_B independent of r for r < r_c; collapse above r_c";
    "E4" islands: "maximum island size vs island parameter gamma (Lemma 6)",
        "below ~sqrt(n/k): max island O(log n); above: giant Theta(k) islands";
    "E5" meeting: "P(two walks meet in D within d^2 steps) vs initial distance d (Lemma 3)",
        "P >= c3 / log d: P(d) * ln d bounded below by a constant";
    "E6" walk_range: "walk range R_ell and displacement after ell steps (Lemma 2)",
        "R_ell = Omega(ell/log ell); P(dev >= lambda sqrt(ell)) <= ~exp(-lambda^2/2)";
    "E7" cover_time: "cover time of k independent walks (Section 4)",
        "T_cover = O(n log^2 n / k + n log n): ~1/k decay, flattening at large k";
    "E8" frog: "Frog model: broadcast time vs k (only informed agents move)",
        "same Theta~(n/sqrt(k)) scaling as the fully mobile model";
    "E9" gossip: "gossip time vs k (all k rumors to all agents)",
        "T_G = O~(n/sqrt(k)); T_G/T_B bounded by a polylog factor";
    "E10" coverage: "coverage time T_C vs broadcast time T_B (Section 4)",
        "T_C ~ T_B = O~(n/sqrt(k)): bounded T_C/T_B, same k-exponent";
    "E11" predator_prey: "predator-prey extinction time vs number of predators (Section 4)",
        "T_ext = O(n log^2 n / k): ~1/k decay (contrast broadcast's 1/sqrt(k))";
    "E12" wang_refute: "which law fits measured T_B: n/sqrt(k) (paper) or n log n log k / k (Wang)",
        "the paper's n/sqrt(k) fits; the Wang bound's 1/k decay does not";
    "E13" percolation: "giant-component fraction vs r/r_c; threshold location",
        "percolation at r_c ~ sqrt(n/k): thresholds collapse at a common r/r_c";
    "E14" clementi: "dense-MANET baseline (Clementi et al.): T_B vs exchange radius R",
        "for k = Theta(n), rho = O(R): T_B = Theta(sqrt(n)/R) => slope -1 in R";
    "E15" frontier: "frontier advance rate of the informed area (Theorem 2)",
        "frontier speed O~(sqrt(k)/sqrt(n)) per step => T_B = Omega~(n/sqrt(k))";
    "E16" hitting: "P(walk visits node at distance d within d^2 steps) (Lemma 1)",
        "P >= c1 / log d: P(d) * ln d bounded below by a constant";
    "E17" cells: "cell-by-cell exploration of the tessellation (Theorem 1 machinery)",
        "all cells reached within O~(T_B); reach time grows with distance from source";
    "E18" above_percolation: "broadcast scaling above vs below the percolation point",
        "below r_c: T_B ~ k^{-1/2}; above r_c: polylog in k (near-zero exponent)";
    "E19" barriers:
        "mobility barriers: broadcast through a wall with a gap (future work, Section 4)",
        "narrower gaps inflate T_B monotonically over the open grid";
    "E20" diffusion: "mean squared displacement of the lazy walk",
        "MSD(t) = (4/5) t in the interior; saturation at the boundary scale";
    "E21" sweep: "declarative multi-axis sweep across the percolation threshold",
        "mean T_B collapses as r crosses r_c = sqrt(n/k); the knee sits in [r_c/4, 4 r_c]";
    "E22" protocol: "message-passing protocol twin vs the simulator's broadcast curves",
        "ideal-network twin reproduces T_B draw-for-draw (ratio exactly 1) and the r_c knee";
    "E23" worlds: "heterogeneous, obstructed, churning worlds",
        "world axes leave the trivial-world phase transition intact and shift the knee";
    "E24" adaptive: "adaptive knee refinement against the dense-grid comparator",
        "bisection finds every knee in [r_c/4, 4 r_c] to one-step/1% precision \
        at <= 40% of the dense grid's cells";
    "E25" faults ["--no-recovery"]:
        "fault-tolerant protocol twin: crashes, partitions, retransmission, anti-entropy",
        "recovery bounds degradation: all faulty runs complete with median <= 3x ideal T_B";
    "A1" ablation_hops: "ablation: component flooding vs one-hop-per-step exchange",
        "below r_c the two models coincide up to small factors; above r_c they diverge";
    "A2" ablation_lazy: "ablation: bounded grid vs torus broadcast scaling",
        "boundary affects constants only; the k-exponent stays about -1/2";
}
