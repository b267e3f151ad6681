//! Property tests: min-cost assignment must match a brute-force search
//! on small instances and always respect capacities.

use epplan_flow::min_cost_assignment;
use proptest::prelude::*;

/// Brute force: try every assignment of lefts to adjacent rights.
fn brute_force(
    n_left: usize,
    n_right: usize,
    edges: &[(usize, usize, f64)],
    caps: &[usize],
) -> Option<f64> {
    // adjacency with min edge cost per (l, r)
    let mut cost = vec![vec![f64::INFINITY; n_right]; n_left];
    for &(l, r, c) in edges {
        if c < cost[l][r] {
            cost[l][r] = c;
        }
    }
    #[allow(clippy::too_many_arguments)]
    fn rec(
        l: usize,
        n_left: usize,
        n_right: usize,
        cost: &[Vec<f64>],
        used: &mut [usize],
        caps: &[usize],
        acc: f64,
        best: &mut Option<f64>,
    ) {
        if l == n_left {
            if best.is_none() || acc < best.unwrap() {
                *best = Some(acc);
            }
            return;
        }
        for r in 0..n_right {
            if used[r] < caps[r] && cost[l][r].is_finite() {
                used[r] += 1;
                rec(l + 1, n_left, n_right, cost, used, caps, acc + cost[l][r], best);
                used[r] -= 1;
            }
        }
    }
    let mut best = None;
    let mut used = vec![0; n_right];
    rec(0, n_left, n_right, &cost, &mut used, caps, 0.0, &mut best);
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn matches_brute_force(
        n_left in 1usize..5,
        n_right in 1usize..5,
        density in 0.3..1.0f64,
        seed in 0u64..10_000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for l in 0..n_left {
            for r in 0..n_right {
                if rng.gen_bool(density) {
                    edges.push((l, r, (rng.gen_range(-50..50) as f64) / 4.0));
                }
            }
        }
        let caps: Vec<usize> = (0..n_right).map(|_| rng.gen_range(0..3)).collect();

        let got = min_cost_assignment(n_left, n_right, &edges, &caps);
        let want = brute_force(n_left, n_right, &edges, &caps);
        match (got, want) {
            (Err(e), None) => {
                prop_assert_eq!(e.kind, epplan_solve::FailureKind::Infeasible);
            }
            (Ok(a), Some(w)) => {
                prop_assert!((a.cost - w).abs() < 1e-6,
                    "flow cost {} vs brute force {}", a.cost, w);
                // capacities respected
                let mut used = vec![0usize; n_right];
                for &r in &a.left_to_right { used[r] += 1; }
                for r in 0..n_right {
                    prop_assert!(used[r] <= caps[r]);
                }
                // every chosen edge exists
                for (l, &r) in a.left_to_right.iter().enumerate() {
                    prop_assert!(edges.iter().any(|&(el, er, _)| el == l && er == r));
                }
            }
            (g, w) => prop_assert!(false, "feasibility disagrees: flow={:?} bf={:?}",
                g.map(|a| a.cost).ok(), w),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// The potential-based Dijkstra solver and the SPFA solver must
    /// agree on max flow and min cost for arbitrary layered networks.
    #[test]
    fn fast_and_slow_mcmf_agree(
        n_mid in 1usize..6,
        seed in 0u64..20_000,
    ) {
        use epplan_flow::MinCostFlow;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Layered s → mid → t network (no negative cycles by shape),
        // with some negative mid-layer costs.
        let n = n_mid + 2;
        let s = 0;
        let t = n - 1;
        let build = |rng: &mut rand::rngs::StdRng| {
            let mut g = MinCostFlow::new(n);
            let mut edges = Vec::new();
            for v in 1..=n_mid {
                if rng.gen_bool(0.8) {
                    edges.push((s, v, rng.gen_range(1..4) as f64,
                                rng.gen_range(0.0..3.0)));
                }
                if rng.gen_bool(0.8) {
                    edges.push((v, t, rng.gen_range(1..4) as f64,
                                rng.gen_range(-2.0..3.0)));
                }
            }
            for a in 1..=n_mid {
                for b in (a + 1)..=n_mid {
                    if rng.gen_bool(0.3) {
                        edges.push((a, b, rng.gen_range(1..3) as f64,
                                    rng.gen_range(-1.0..2.0)));
                    }
                }
            }
            for &(u, v, c, w) in &edges {
                g.add_edge(u, v, c, w);
            }
            g
        };
        let mut rng2 = rng.clone();
        let slow = build(&mut rng).max_flow_min_cost(s, t).unwrap();
        let fast = build(&mut rng2).max_flow_min_cost_fast(s, t).unwrap();
        prop_assert!((slow.flow - fast.flow).abs() < 1e-9,
            "flow {} vs {}", slow.flow, fast.flow);
        prop_assert!((slow.cost - fast.cost).abs() < 1e-6,
            "cost {} vs {}", slow.cost, fast.cost);
    }
}

/// A slot graph as the Shmoys–Tardos rounding builds it: source →
/// jobs (cap 1) → slots (cap 1 per job–slot edge) → sink (cap 1), with
/// each job adjacent to a few slots. Costs take one of five quantized
/// values, so equal-cost paths — and with them ties at the sink — are
/// common, as with Jaccard μ.
fn slot_graph(
    n_jobs: usize,
    n_slots: usize,
    seed: u64,
) -> (epplan_flow::MinCostFlow, usize, usize) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let s = 0;
    let job = |j: usize| 1 + j;
    let slot = |k: usize| 1 + n_jobs + k;
    let t = 1 + n_jobs + n_slots;
    let mut g = epplan_flow::MinCostFlow::new(t + 1);
    for j in 0..n_jobs {
        g.add_edge(s, job(j), 1.0, 0.0);
    }
    for k in 0..n_slots {
        g.add_edge(slot(k), t, 1.0, 0.0);
    }
    for j in 0..n_jobs {
        let degree = rng.gen_range(1..=6usize.min(n_slots));
        let first = rng.gen_range(0..n_slots);
        for d in 0..degree {
            let cost = rng.gen_range(0..5) as f64 / 4.0 - 0.5;
            g.add_edge(job(j), slot((first + d) % n_slots), 1.0, cost);
        }
    }
    (g, s, t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The sink-stopping Dijkstra agrees with SPFA on flow value and
    /// cost, and leaves a residual graph with no negative cycle.
    #[test]
    fn fast_and_slow_mcmf_agree_on_slot_graphs(
        n_jobs in 1usize..=30,
        n_slots in 1usize..=40,
        seed in 0u64..50_000,
    ) {
        let (mut slow_g, s, t) = slot_graph(n_jobs, n_slots, seed);
        let (mut fast_g, _, _) = slot_graph(n_jobs, n_slots, seed);
        let slow = slow_g.max_flow_min_cost(s, t).unwrap();
        let fast = fast_g.max_flow_min_cost_fast(s, t).unwrap();
        prop_assert!((slow.flow - fast.flow).abs() < 1e-9,
            "flow {} vs {}", slow.flow, fast.flow);
        prop_assert!((slow.cost - fast.cost).abs() < 1e-9,
            "cost {} vs {}", slow.cost, fast.cost);
        prop_assert!(fast_g.verify_reduced_cost_optimality());
    }

    /// A fast solve cut short by an augmentation cap leaves a flow that
    /// is cost-minimal for its value: it certifies, and SPFA limited to
    /// the same value finds the same cost.
    #[test]
    fn capped_fast_mcmf_is_cost_optimal_for_its_value(
        n_jobs in 1usize..=30,
        n_slots in 1usize..=40,
        cap in 1u64..=30,
        seed in 0u64..50_000,
    ) {
        use epplan_solve::{FailureKind, SolveBudget};
        let (mut fast_g, s, t) = slot_graph(n_jobs, n_slots, seed);
        let partial = match fast_g
            .max_flow_min_cost_fast_with_budget(s, t, SolveBudget::from_iteration_cap(cap))
        {
            Ok(done) => done,
            Err(e) => {
                prop_assert_eq!(e.kind, FailureKind::BudgetExhausted);
                e.partial.expect("an exhausted budget keeps the partial flow")
            }
        };
        prop_assert!(fast_g.verify_reduced_cost_optimality());
        let (mut slow_g, _, _) = slot_graph(n_jobs, n_slots, seed);
        let slow = slow_g.flow_with_limit(s, t, partial.flow).unwrap();
        prop_assert!((slow.flow - partial.flow).abs() < 1e-9,
            "flow {} vs {}", slow.flow, partial.flow);
        prop_assert!((slow.cost - partial.cost).abs() < 1e-9,
            "cost {} vs {}", slow.cost, partial.cost);
    }
}
