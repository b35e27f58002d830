//! Spack-like package-dependency-graph analysis (Table III).
//!
//! The paper identifies 14 packages providing dense linear algebra among
//! Spack 0.15.1's 4,371 packages ("dependency distance 0") and counts, via
//! the dependency DAG, how many packages sit at distance 1, 2, 3, and 1–∞
//! from a BLAS provider — with and without folding away the py-*/R-*
//! sub-package families. The analysis here is a real graph computation
//! (reverse-BFS from the providers); the ecosystem generator reproduces
//! Spack's documented structure so the computed table matches the paper's.

use me_numerics::Rng64;
use std::collections::VecDeque;

/// The 14 dense-linear-algebra providers the paper lists (§III-B).
pub const BLAS_PROVIDERS: [&str; 14] = [
    "amdblis",
    "atlas",
    "blis",
    "eigen",
    "essl",
    "intel-mkl",
    "netlib-lapack",
    "netlib-scalapack",
    "netlib-xblas",
    "openblas",
    "cuda",
    "py-blis",
    "libxsmm",
    "veclibfort",
];

/// Package naming family (used for the sub-package folding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PkgFamily {
    /// Regular package.
    Native,
    /// `py-*` Python sub-package.
    Python,
    /// `r-*` R sub-package.
    R,
}

/// One package.
#[derive(Debug, Clone)]
pub struct Package {
    /// Package name.
    pub name: String,
    /// Naming family.
    pub family: PkgFamily,
    /// Indices of packages this one depends on.
    pub deps: Vec<usize>,
}

/// A package-dependency graph.
#[derive(Debug, Clone, Default)]
pub struct PackageGraph {
    /// All packages.
    pub packages: Vec<Package>,
}

/// One row of Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceRow {
    /// Row label ("0", "1", "2", "3", "1–inf").
    pub label: &'static str,
    /// Package count.
    pub count: usize,
    /// Percentage of all packages in the analyzed universe.
    pub percent: f64,
}

impl PackageGraph {
    /// Number of packages.
    pub fn len(&self) -> usize {
        self.packages.len()
    }

    /// True when the graph has no packages.
    pub fn is_empty(&self) -> bool {
        self.packages.is_empty()
    }

    /// Indices of the BLAS providers present in the graph (distance 0).
    pub fn provider_indices(&self) -> Vec<usize> {
        self.packages
            .iter()
            .enumerate()
            .filter(|(_, p)| BLAS_PROVIDERS.contains(&p.name.as_str()))
            .map(|(i, _)| i)
            .collect()
    }

    /// Dependency distance of every package from the nearest BLAS provider
    /// (None = does not depend on dense linear algebra at all).
    ///
    /// Distance is over *dependency direction*: a package at distance d has
    /// a dependency chain of length d ending at a provider. Computed by
    /// BFS over reversed edges from all providers at once.
    pub fn distances(&self) -> Vec<Option<u32>> {
        let n = self.packages.len();
        // Reverse adjacency: for each package, who depends on it.
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, p) in self.packages.iter().enumerate() {
            for &d in &p.deps {
                rev[d].push(i);
            }
        }
        let mut dist: Vec<Option<u32>> = vec![None; n];
        let mut queue = VecDeque::new();
        for i in self.provider_indices() {
            dist[i] = Some(0);
            queue.push_back(i);
        }
        while let Some(u) = queue.pop_front() {
            // Every queued node was assigned a distance when enqueued.
            let Some(du) = dist[u] else { continue };
            for &v in &rev[u] {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Compute the Table III rows.
    ///
    /// With `fold_subpackages`, the py-*/R-* families are removed from the
    /// universe (the paper merges them under their parent packages) and
    /// distances are recomputed on the induced subgraph.
    pub fn table3(&self, fold_subpackages: bool) -> Vec<DistanceRow> {
        let graph;
        let g = if fold_subpackages {
            graph = self.without_subpackages();
            &graph
        } else {
            self
        };
        let dist = g.distances();
        let total = g.len().max(1);
        let count_at = |d: u32| dist.iter().filter(|x| **x == Some(d)).count();
        let reachable_nonzero = dist.iter().filter(|x| matches!(x, Some(d) if *d >= 1)).count();
        let pct = |c: usize| 100.0 * c as f64 / total as f64;
        vec![
            DistanceRow { label: "0", count: count_at(0), percent: pct(count_at(0)) },
            DistanceRow { label: "1", count: count_at(1), percent: pct(count_at(1)) },
            DistanceRow { label: "2", count: count_at(2), percent: pct(count_at(2)) },
            DistanceRow { label: "3", count: count_at(3), percent: pct(count_at(3)) },
            DistanceRow {
                label: "1-inf",
                count: reachable_nonzero,
                percent: pct(reachable_nonzero),
            },
        ]
    }

    /// The graph with py-*/R-* sub-packages removed (edges through them are
    /// contracted to their dependencies, preserving reachability — removing
    /// py-numpy must not disconnect the py-scipy-equivalent native parents,
    /// mirroring the paper's merge-into-parent adjustment).
    pub fn without_subpackages(&self) -> PackageGraph {
        let keep: Vec<bool> = self
            .packages
            .iter()
            .map(|p| p.family == PkgFamily::Native || BLAS_PROVIDERS.contains(&p.name.as_str()))
            .collect();
        // Transitive dependency closure through removed nodes.
        let n = self.packages.len();
        let mut new_index = vec![usize::MAX; n];
        let mut kept: Vec<usize> = Vec::new();
        for i in 0..n {
            if keep[i] {
                new_index[i] = kept.len();
                kept.push(i);
            }
        }
        let resolve_deps = |start: usize| -> Vec<usize> {
            // DFS through removed packages to the nearest kept dependencies.
            let mut out = Vec::new();
            let mut stack: Vec<usize> = self.packages[start].deps.clone();
            let mut seen = vec![false; n];
            while let Some(d) = stack.pop() {
                if seen[d] {
                    continue;
                }
                seen[d] = true;
                if keep[d] {
                    out.push(new_index[d]);
                } else {
                    stack.extend_from_slice(&self.packages[d].deps);
                }
            }
            out.sort_unstable();
            out.dedup();
            out
        };
        let packages = kept
            .iter()
            .map(|&i| Package {
                name: self.packages[i].name.clone(),
                family: self.packages[i].family,
                deps: resolve_deps(i),
            })
            .collect();
        PackageGraph { packages }
    }
}

/// Parameters of the ecosystem generator, defaulting to Spack 0.15.1's
/// documented shape.
#[derive(Debug, Clone)]
pub struct EcosystemShape {
    /// Total package count (paper: 4,371).
    pub total: usize,
    /// Packages at distance 1/2/3 (paper: 239, 762, 968).
    pub at_distance: [usize; 3],
    /// Total reachable at distance >= 1 (paper: 3,061).
    pub reachable: usize,
    /// Number of py-*/R-* sub-packages (derived from the paper's two
    /// columns: 4,371 − 2,548 = 1,823).
    pub subpackages: usize,
    /// Fraction of sub-packages that depend on BLAS (python's numpy-centric
    /// ecosystem makes this nearly all of them).
    pub subpackage_dependent_fraction: f64,
}

impl Default for EcosystemShape {
    fn default() -> Self {
        EcosystemShape {
            total: 4371,
            at_distance: [239, 762, 968],
            reachable: 3061,
            subpackages: 1823,
            subpackage_dependent_fraction: 0.96,
        }
    }
}

/// Generate a Spack-shaped ecosystem.
///
/// The generator builds distance "shells": each package at target distance
/// `d` depends on at least one package at distance `d−1` (plus extra edges
/// at smaller distances so the DAG looks organic). Unreachable packages
/// depend only on each other. The py-*/R-* family is assigned mostly to the
/// dependent shells, so that folding them away reproduces the paper's
/// second column (~51% of the remaining packages depend on BLAS).
pub fn spack_ecosystem(seed: u64) -> PackageGraph {
    spack_ecosystem_with(EcosystemShape::default(), seed)
}

/// Generate an ecosystem with an explicit shape (for sensitivity tests).
pub fn spack_ecosystem_with(shape: EcosystemShape, seed: u64) -> PackageGraph {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut packages: Vec<Package> = Vec::with_capacity(shape.total);

    // Distance-0 providers.
    for name in BLAS_PROVIDERS {
        let family = if name.starts_with("py-") { PkgFamily::Python } else { PkgFamily::Native };
        packages.push(Package { name: name.to_string(), family, deps: vec![] });
    }

    let d1 = shape.at_distance[0];
    let d2 = shape.at_distance[1];
    let d3 = shape.at_distance[2];
    let deep = shape.reachable - d1 - d2 - d3; // distance >= 4
    let unreachable = shape.total - BLAS_PROVIDERS.len() - shape.reachable;

    // How many sub-packages to place among dependents vs unreachable.
    let sub_dep_target =
        ((shape.subpackages as f64) * shape.subpackage_dependent_fraction).round() as usize;
    let mut sub_dep_left = sub_dep_target.min(shape.reachable);
    let mut sub_unreach_left = shape.subpackages - sub_dep_left;

    let mut shells: Vec<Vec<usize>> = vec![(0..BLAS_PROVIDERS.len()).collect()];

    let assign_family = |rng: &mut Rng64, left: &mut usize, remaining_slots: usize| {
        if *left > 0 && rng.chance((*left as f64 / remaining_slots.max(1) as f64).min(1.0)) {
            *left -= 1;
            if rng.chance(0.7) {
                PkgFamily::Python
            } else {
                PkgFamily::R
            }
        } else {
            PkgFamily::Native
        }
    };

    // Dependent shells: distances 1..=3 then deep shells of ~equal size.
    let mut shell_sizes = vec![d1, d2, d3];
    let deep_shells = 5;
    for i in 0..deep_shells {
        shell_sizes.push(deep / deep_shells + usize::from(i < deep % deep_shells));
    }
    let mut remaining_dep_slots: usize = shape.reachable;
    for (di, &size) in shell_sizes.iter().enumerate() {
        let mut shell = Vec::with_capacity(size);
        for _ in 0..size {
            let idx = packages.len();
            let family = assign_family(&mut rng, &mut sub_dep_left, remaining_dep_slots);
            remaining_dep_slots -= 1;
            let prev_shell = &shells[di];
            let anchor = prev_shell[rng.range_usize(0, prev_shell.len())];
            let mut deps = vec![anchor];
            // Extra organic edges within the same predecessor shell — they
            // must not shorten the BFS distance, so they only target the
            // shell the anchor lives in.
            for _ in 0..rng.range_usize(0, 3) {
                deps.push(prev_shell[rng.range_usize(0, prev_shell.len())]);
            }
            deps.sort_unstable();
            deps.dedup();
            let prefix = match family {
                PkgFamily::Python => "py-",
                PkgFamily::R => "r-",
                PkgFamily::Native => "",
            };
            packages.push(Package { name: format!("{prefix}pkg-{idx}"), family, deps });
            shell.push(idx);
        }
        shells.push(shell);
    }

    // Unreachable packages: depend only on other unreachable ones.
    let unreach_start = packages.len();
    for i in 0..unreachable {
        let idx = packages.len();
        let family = assign_family(&mut rng, &mut sub_unreach_left, unreachable - i);
        let mut deps = Vec::new();
        if idx > unreach_start && rng.chance(0.5) {
            deps.push(rng.range_usize(unreach_start, idx));
        }
        let prefix = match family {
            PkgFamily::Python => "py-",
            PkgFamily::R => "r-",
            PkgFamily::Native => "",
        };
        packages.push(Package { name: format!("{prefix}leaf-{idx}"), family, deps });
    }

    PackageGraph { packages }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecosystem_matches_table3_first_column() {
        let g = spack_ecosystem(42);
        assert_eq!(g.len(), 4371);
        let rows = g.table3(false);
        assert_eq!(rows[0], DistanceRow { label: "0", count: 14, percent: rows[0].percent });
        assert!((rows[0].percent - 0.32).abs() < 0.02);
        assert_eq!(rows[1].count, 239, "distance 1");
        assert!((rows[1].percent - 5.47).abs() < 0.05);
        assert_eq!(rows[2].count, 762, "distance 2");
        assert!((rows[2].percent - 17.43).abs() < 0.05);
        assert_eq!(rows[3].count, 968, "distance 3");
        assert!((rows[3].percent - 22.15).abs() < 0.05);
        assert_eq!(rows[4].count, 3061, "distance 1-inf");
        assert!((rows[4].percent - 70.03).abs() < 0.05);
    }

    #[test]
    fn folded_column_halves_the_share() {
        // Paper: excluding py-*/R-* sub-packages, ~51% of packages depend
        // (directly or not) on BLAS.
        let g = spack_ecosystem(42);
        let rows = g.table3(true);
        assert_eq!(rows[0].count, 14, "providers survive folding");
        let share = rows[4].percent;
        assert!((share - 51.45).abs() < 6.0, "folded 1-inf share {share}%");
    }

    #[test]
    fn distances_are_bfs_correct_on_a_known_graph() {
        // openblas <- a <- b, c isolated, py-d -> openblas
        let packages = vec![
            Package { name: "openblas".into(), family: PkgFamily::Native, deps: vec![] },
            Package { name: "a".into(), family: PkgFamily::Native, deps: vec![0] },
            Package { name: "b".into(), family: PkgFamily::Native, deps: vec![1] },
            Package { name: "c".into(), family: PkgFamily::Native, deps: vec![] },
            Package { name: "py-d".into(), family: PkgFamily::Python, deps: vec![0] },
        ];
        let g = PackageGraph { packages };
        let d = g.distances();
        assert_eq!(d, vec![Some(0), Some(1), Some(2), None, Some(1)]);
        let rows = g.table3(false);
        assert_eq!(rows[4].count, 3);
        // Folding removes py-d entirely.
        let folded = g.table3(true);
        assert_eq!(folded[4].count, 2);
    }

    #[test]
    fn folding_preserves_reachability_through_subpackages() {
        // native-x -> py-mid -> openblas: folding must keep native-x
        // reachable (edge contraction), at the contracted distance 1.
        let packages = vec![
            Package { name: "openblas".into(), family: PkgFamily::Native, deps: vec![] },
            Package { name: "py-mid".into(), family: PkgFamily::Python, deps: vec![0] },
            Package { name: "native-x".into(), family: PkgFamily::Native, deps: vec![1] },
        ];
        let g = PackageGraph { packages };
        let folded = g.without_subpackages();
        assert_eq!(folded.len(), 2);
        let d = folded.distances();
        assert_eq!(d.iter().filter(|x| x.is_some()).count(), 2);
        assert!(d.contains(&Some(1)), "contracted chain must be distance 1");
    }

    #[test]
    fn distance_shells_use_shortest_path() {
        // A package depending on both a provider and a distance-2 package
        // is at distance 1.
        let packages = vec![
            Package { name: "openblas".into(), family: PkgFamily::Native, deps: vec![] },
            Package { name: "a".into(), family: PkgFamily::Native, deps: vec![0] },
            Package { name: "b".into(), family: PkgFamily::Native, deps: vec![1] },
            Package { name: "multi".into(), family: PkgFamily::Native, deps: vec![0, 2] },
        ];
        let g = PackageGraph { packages };
        assert_eq!(g.distances()[3], Some(1));
    }

    #[test]
    fn generator_is_seed_deterministic() {
        let a = spack_ecosystem(7);
        let b = spack_ecosystem(7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.packages.iter().zip(&b.packages) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.deps, y.deps);
        }
        let c = spack_ecosystem(8);
        // Different seed: same shape, different wiring.
        assert_eq!(c.table3(false)[4].count, a.table3(false)[4].count);
    }

    #[test]
    fn empty_graph_is_safe() {
        let g = PackageGraph::default();
        assert!(g.is_empty());
        let rows = g.table3(false);
        assert_eq!(rows[4].count, 0);
    }
}

// ---------------------------------------------------------------------------
// Query helpers over the ecosystem graph.
// ---------------------------------------------------------------------------

impl PackageGraph {
    /// Number of direct dependents per package (reverse out-degree).
    pub fn dependent_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.packages.len()];
        for p in &self.packages {
            for &d in &p.deps {
                counts[d] += 1;
            }
        }
        counts
    }

    /// The `top` packages by direct-dependent count: in a Spack-shaped
    /// ecosystem these are the BLAS providers and the numpy-like hubs.
    pub fn most_depended_on(&self, top: usize) -> Vec<(&str, usize)> {
        let counts = self.dependent_counts();
        let mut idx: Vec<usize> = (0..self.packages.len()).collect();
        idx.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
        idx.into_iter().take(top).map(|i| (self.packages[i].name.as_str(), counts[i])).collect()
    }

    /// Histogram of dependency distances: (distance, count) plus the
    /// unreachable count, for plotting the Table III tail.
    pub fn distance_histogram(&self) -> (Vec<(u32, usize)>, usize) {
        let dist = self.distances();
        let mut unreachable = 0usize;
        let mut hist: std::collections::BTreeMap<u32, usize> = Default::default();
        for d in dist {
            match d {
                Some(x) => *hist.entry(x).or_default() += 1,
                None => unreachable += 1,
            }
        }
        (hist.into_iter().collect(), unreachable)
    }

    /// Family counts: (native, python, r).
    pub fn family_counts(&self) -> (usize, usize, usize) {
        let mut n = (0, 0, 0);
        for p in &self.packages {
            match p.family {
                PkgFamily::Native => n.0 += 1,
                PkgFamily::Python => n.1 += 1,
                PkgFamily::R => n.2 += 1,
            }
        }
        n
    }
}

#[cfg(test)]
mod query_tests {
    use super::*;

    #[test]
    fn providers_are_the_hubs() {
        let g = spack_ecosystem(5);
        let top = g.most_depended_on(20);
        // At least a few of the 14 providers must appear among the top-20
        // most-depended-on packages (every distance-1 package anchors on
        // one of them).
        let provider_hits = top.iter().filter(|(n, _)| BLAS_PROVIDERS.contains(n)).count();
        assert!(provider_hits >= 3, "only {provider_hits} providers in the top 20: {top:?}");
    }

    #[test]
    fn histogram_sums_to_total() {
        let g = spack_ecosystem(6);
        let (hist, unreachable) = g.distance_histogram();
        let total: usize = hist.iter().map(|&(_, c)| c).sum::<usize>() + unreachable;
        assert_eq!(total, g.len());
        // Distances 0..3 match Table III.
        let at = |d: u32| hist.iter().find(|&&(x, _)| x == d).map(|&(_, c)| c).unwrap_or(0);
        assert_eq!(at(0), 14);
        assert_eq!(at(1), 239);
        assert_eq!(at(2), 762);
        assert_eq!(at(3), 968);
    }

    #[test]
    fn family_counts_match_the_folding_gap() {
        let g = spack_ecosystem(7);
        let (native, py, r) = g.family_counts();
        assert_eq!(native + py + r, 4371);
        // 1823 generated sub-packages (the two-column gap of Table III)
        // plus the py-blis provider, which also carries the py- prefix.
        assert_eq!(py + r, 1824);
    }
}
