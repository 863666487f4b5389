//! Report types that render the paper's tables and figures.
//!
//! Each type aggregates one published result over a set of analyzed
//! networks and implements `Display` with the same rows/series the paper
//! reports, so the benchmark harness can print side-by-side
//! paper-vs-measured comparisons.

use std::collections::BTreeMap;
use std::fmt;

use nettopo::stats::{ConfigSizeStats, InterfaceCensus};
use routing_model::{DesignClass, Table1};

use crate::NetworkAnalysis;

/// One named, analyzed network of the study.
#[derive(Clone)]
pub struct StudyNetwork {
    /// The network's name (`net1`..`net31`).
    pub name: String,
    /// Its full analysis.
    pub analysis: NetworkAnalysis,
}

/// Figure 8: size-distribution histogram buckets (`<10`, `20`, `40`, ...,
/// `>1280`), comparing the study networks against the repository.
#[derive(Clone, Debug, PartialEq)]
pub struct SizeHistogram {
    /// `(label, study fraction, repository fraction)` per bucket.
    pub buckets: Vec<(String, f64, f64)>,
}

impl SizeHistogram {
    /// The paper's bucket boundaries.
    pub const BOUNDS: [usize; 8] = [10, 20, 40, 80, 160, 320, 640, 1280];

    /// Builds the histogram from study sizes and repository sizes.
    pub fn build(study: &[usize], repository: &[usize]) -> SizeHistogram {
        let bucket_of = |n: usize| -> usize {
            Self::BOUNDS.iter().position(|&b| n < b).unwrap_or(Self::BOUNDS.len())
        };
        let mut study_counts = vec![0usize; Self::BOUNDS.len() + 1];
        for &s in study {
            study_counts[bucket_of(s)] += 1;
        }
        let mut repo_counts = vec![0usize; Self::BOUNDS.len() + 1];
        for &s in repository {
            repo_counts[bucket_of(s)] += 1;
        }
        let labels: Vec<String> = std::iter::once("<10".to_string())
            .chain(Self::BOUNDS[1..].iter().map(|b| b.to_string()))
            .chain(std::iter::once(">1280".to_string()))
            .collect();
        let buckets = labels
            .into_iter()
            .enumerate()
            .map(|(i, label)| {
                (
                    label,
                    study_counts[i] as f64 / study.len().max(1) as f64,
                    repo_counts[i] as f64 / repository.len().max(1) as f64,
                )
            })
            .collect();
        SizeHistogram { buckets }
    }
}

impl fmt::Display for SizeHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<8} {:>10} {:>12}", "bucket", "study", "repository")?;
        for (label, s, r) in &self.buckets {
            writeln!(f, "{label:<8} {:>9.1}% {:>11.1}%", s * 100.0, r * 100.0)?;
        }
        Ok(())
    }
}

/// Figure 11: per-network fraction of packet-filter rules on internal
/// links, as a CDF.
#[derive(Clone, Debug, PartialEq)]
pub struct FilterCdf {
    /// Sorted per-network internal fractions (networks without filters are
    /// excluded, as in the paper).
    pub fractions: Vec<f64>,
    /// Networks with no filters at all.
    pub filterless: usize,
}

impl FilterCdf {
    /// Computes the CDF over a set of analyzed networks.
    pub fn build(networks: &[StudyNetwork]) -> FilterCdf {
        let mut fractions = Vec::new();
        let mut filterless = 0usize;
        for n in networks {
            let (internal, total) =
                n.analysis.external.filter_placement(&n.analysis.network);
            if total == 0 {
                filterless += 1;
            } else {
                fractions.push(internal as f64 / total as f64);
            }
        }
        fractions.sort_by(f64::total_cmp);
        FilterCdf { fractions, filterless }
    }

    /// Fraction of (filtered) networks whose internal share is ≥ `x`.
    pub fn fraction_at_least(&self, x: f64) -> f64 {
        if self.fractions.is_empty() {
            return 0.0;
        }
        let count = self.fractions.iter().filter(|&&f| f >= x).count();
        count as f64 / self.fractions.len() as f64
    }

    /// CDF value at `x`: fraction of networks with internal share < `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        1.0 - self.fraction_at_least(x)
    }
}

impl fmt::Display for FilterCdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<28} {:>8}", "% rules on internal links", "CDF")?;
        for pct in (0..=100).step_by(10) {
            writeln!(f, "{:<28} {:>7.2}", pct, self.cdf(pct as f64 / 100.0))?;
        }
        writeln!(f, "(networks without filters: {})", self.filterless)
    }
}

/// Section 7: the design-classification summary.
#[derive(Clone, Debug, Default)]
pub struct Section7Report {
    /// Per-class network sizes.
    pub sizes: BTreeMap<DesignClass, Vec<usize>>,
    /// Networks redistributing BGP-learned routes into an IGP.
    pub bgp_into_igp: usize,
}

impl Section7Report {
    /// Builds the summary.
    pub fn build(networks: &[StudyNetwork]) -> Section7Report {
        let mut report = Section7Report::default();
        for n in networks {
            report
                .sizes
                .entry(n.analysis.design.class)
                .or_default()
                .push(n.analysis.network.len());
            if n.analysis.design.bgp_into_igp {
                report.bgp_into_igp += 1;
            }
        }
        for v in report.sizes.values_mut() {
            v.sort_unstable();
        }
        report
    }

    /// Count for one class.
    pub fn count(&self, class: DesignClass) -> usize {
        self.sizes.get(&class).map(|v| v.len()).unwrap_or(0)
    }

    /// Size statistics for one class: `(min, max, mean, median)`.
    pub fn size_stats(&self, class: DesignClass) -> Option<(usize, usize, f64, usize)> {
        let sizes = self.sizes.get(&class)?;
        if sizes.is_empty() {
            return None;
        }
        let min = sizes[0];
        // Invariant: the is_empty() guard above makes last() infallible.
        let max = *sizes.last().expect("non-empty");
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        let median = sizes[sizes.len() / 2];
        Some((min, max, mean, median))
    }

    /// The "other" group the paper leaves unclassified: everything except
    /// textbook backbones and enterprises.
    pub fn nonclassic(&self) -> Vec<usize> {
        let mut all = Vec::new();
        for (class, sizes) in &self.sizes {
            if !matches!(class, DesignClass::Backbone | DesignClass::Enterprise) {
                all.extend_from_slice(sizes);
            }
        }
        all.sort_unstable();
        all
    }
}

impl fmt::Display for Section7Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<16} {:>6} {:>8} {:>8} {:>8}", "class", "count", "min", "max", "mean")?;
        for class in [
            DesignClass::Backbone,
            DesignClass::Enterprise,
            DesignClass::Tier2,
            DesignClass::NoBgp,
            DesignClass::Unclassifiable,
        ] {
            if let Some((min, max, mean, _)) = self.size_stats(class) {
                writeln!(
                    f,
                    "{:<16} {:>6} {:>8} {:>8} {:>8.0}",
                    class.to_string(),
                    self.count(class),
                    min,
                    max,
                    mean
                )?;
            }
        }
        writeln!(f, "networks redistributing BGP into an IGP: {}", self.bgp_into_igp)
    }
}

/// The full study report: everything the paper's evaluation publishes,
/// aggregated over the analyzed networks.
pub struct StudyReport {
    /// Table 1 summed over all networks.
    pub table1: Table1,
    /// Table 3 summed over all networks.
    pub census: InterfaceCensus,
    /// Figure 11.
    pub filter_cdf: FilterCdf,
    /// Section 7.
    pub section7: Section7Report,
    /// Per-network router counts (input to Figure 8).
    pub sizes: Vec<(String, usize)>,
}

impl StudyReport {
    /// Aggregates a set of analyzed networks.
    pub fn build(networks: &[StudyNetwork]) -> StudyReport {
        let mut table1 = Table1::default();
        let mut census = InterfaceCensus::default();
        for n in networks {
            table1.add(&n.analysis.table1);
            census.add(&n.analysis.network);
        }
        StudyReport {
            table1,
            census,
            filter_cdf: FilterCdf::build(networks),
            section7: Section7Report::build(networks),
            sizes: networks
                .iter()
                .map(|n| (n.name.clone(), n.analysis.network.len()))
                .collect(),
        }
    }

    /// Figure 8 against a repository size sample.
    pub fn size_histogram(&self, repository: &[usize]) -> SizeHistogram {
        let study: Vec<usize> = self.sizes.iter().map(|(_, s)| *s).collect();
        SizeHistogram::build(&study, repository)
    }
}

/// Renders Table 3 in the paper's ascending-count layout.
pub fn render_table3(census: &InterfaceCensus) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<18} {:>8}\n", "Type", "Count"));
    for (label, count) in census.rows_ascending() {
        out.push_str(&format!("{label:<18} {count:>8}\n"));
    }
    out.push_str(&format!("{:<18} {:>8}\n", "total", census.total));
    out.push_str(&format!("unnumbered interfaces: {}\n", census.unnumbered));
    out
}

/// Renders Figure 4 (config-size distribution) as summary rows.
pub fn render_fig4(stats: &ConfigSizeStats) -> String {
    format!(
        "configs: {}\ntotal commands: {}\nmean lines: {:.0}\nmin/median/p90/max: {}/{}/{}/{}\n",
        stats.sizes.len(),
        stats.total_commands,
        stats.mean(),
        stats.min(),
        stats.quantile(0.5),
        stats.quantile(0.9),
        stats.max(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_histogram_buckets() {
        let study = vec![5, 15, 25, 100, 2000];
        let repo = vec![1, 2, 3, 30];
        let h = SizeHistogram::build(&study, &repo);
        assert_eq!(h.buckets.len(), 9);
        assert_eq!(h.buckets[0].0, "<10");
        assert!((h.buckets[0].1 - 0.2).abs() < 1e-9); // one of five
        assert!((h.buckets[0].2 - 0.75).abs() < 1e-9); // three of four
        assert_eq!(h.buckets[8].0, ">1280");
        assert!((h.buckets[8].1 - 0.2).abs() < 1e-9);
        let text = h.to_string();
        assert!(text.contains("repository"));
    }

    #[test]
    fn filter_cdf_math() {
        let cdf = FilterCdf { fractions: vec![0.1, 0.4, 0.5, 0.9], filterless: 1 };
        assert_eq!(cdf.fraction_at_least(0.4), 0.75);
        assert_eq!(cdf.fraction_at_least(0.95), 0.0);
        assert_eq!(cdf.cdf(0.4), 0.25);
        assert!(cdf.to_string().contains("without filters: 1"));
    }

    #[test]
    fn section7_aggregation() {
        // Build two tiny analyzed networks of different classes.
        let nobgp = NetworkAnalysis::from_texts(vec![(
            "config1".to_string(),
            "interface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n\
             router rip\n network 10.0.0.0\n"
                .to_string(),
        )])
        .unwrap();
        let networks =
            vec![StudyNetwork { name: "netA".to_string(), analysis: nobgp }];
        let report = Section7Report::build(&networks);
        assert_eq!(report.count(DesignClass::NoBgp), 1);
        assert_eq!(report.size_stats(DesignClass::NoBgp), Some((1, 1, 1.0, 1)));
        assert_eq!(report.nonclassic(), vec![1]);
        assert!(report.to_string().contains("no-bgp"));
    }

    #[test]
    fn study_report_builds_and_renders() {
        let nobgp = NetworkAnalysis::from_texts(vec![(
            "config1".to_string(),
            "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n\
             interface FastEthernet0\n ip address 10.1.0.1 255.255.255.0\n\
             router ospf 1\n network 10.0.0.0 0.255.255.255 area 0\n"
                .to_string(),
        )])
        .unwrap();
        let networks =
            vec![StudyNetwork { name: "netA".to_string(), analysis: nobgp }];
        let report = StudyReport::build(&networks);
        assert_eq!(report.census.total, 2);
        let table3 = render_table3(&report.census);
        assert!(table3.contains("Serial"));
        let hist = report.size_histogram(&[3, 5, 100]);
        assert_eq!(hist.buckets.len(), 9);
        let stats = ConfigSizeStats::of(&networks[0].analysis.network);
        assert!(render_fig4(&stats).contains("mean lines"));
    }
}
