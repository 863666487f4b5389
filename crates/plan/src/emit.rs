//! Plan rendering: the human step table and the canonical JSON document.
//!
//! Both renderings are pure functions of the [`Plan`] (wall-clock
//! timings are deliberately excluded), so plan output is byte-identical
//! across runs and thread counts — the property verify.sh's plan stage
//! pins with `cmp`.

use rd_obs::json::{Layout, Writer};

use crate::{InvariantCheck, Plan};

/// Renders the plan as the canonical JSON document — the exact bytes
/// `rdx plan --json` prints and rd-serve's `/plan` endpoint serves.
pub fn render_json(plan: &Plan) -> String {
    let mut w = Writer::object(Layout::Block);
    w.key("plan").obj(Layout::Block, |w| {
        w.key("current_routers").num(plan.current_routers);
        w.key("target_routers").num(plan.target_routers);
        w.key("units").num(plan.units.len());
        w.key("dag_edges").num(plan.dag_edges);
        w.key("steps").arr(Layout::Block, |w| {
            for (i, (unit, verdict)) in plan.steps().enumerate() {
                w.obj(Layout::Block, |w| {
                    w.key("step").num(i + 1);
                    w.key("action").str(unit.kind.verb());
                    w.key("router").str(&unit.router);
                    if let Some(old) = &unit.old_file {
                        w.key("old_file").str(old);
                    }
                    if let Some(new) = &unit.new_file {
                        w.key("new_file").str(new);
                    }
                    write_checks(w.key("checks"), &verdict.checks);
                });
            }
        });
        w.key("naive").obj(Layout::Block, |w| {
            w.key("order").arr(Layout::Inline, |w| {
                for key in &plan.naive.order {
                    w.str(key);
                }
            });
            w.key("violation");
            match &plan.naive.violation {
                Some(violation) => w.obj(Layout::Block, |w| {
                    w.key("step").num(violation.step);
                    w.key("unit").str(&violation.unit);
                    write_checks(w.key("failed"), &violation.failed);
                }),
                None => w.num("null"),
            };
        });
        let stats = &plan.stats;
        w.key("search").obj(Layout::Inline, |w| {
            w.key("states_analyzed").num(stats.states_analyzed);
            w.key("backtracks").num(stats.backtracks);
            w.key("memo_hits").num(stats.memo_hits);
        });
    });
    w.finish()
}

/// Writes invariant checks as a block array of one-line rows.
fn write_checks(w: &mut Writer, checks: &[InvariantCheck]) {
    w.arr(Layout::Block, |w| {
        for check in checks {
            w.obj(Layout::Inline, |w| {
                w.key("invariant").str(check.invariant);
                w.key("ok").num(check.ok);
                w.key("detail").str(&check.detail);
            });
        }
    });
}

/// Renders the plan as a human-readable step table.
pub fn render_table(plan: &Plan) -> String {
    let mut out = String::with_capacity(2048);
    if plan.is_empty() {
        out.push_str("no semantic changes between the corpora; nothing to plan\n");
        return out;
    }
    out.push_str(&format!(
        "reconfiguration plan: {} change unit(s), {} dependency edge(s), \
         {} -> {} router(s)\n\n",
        plan.units.len(),
        plan.dag_edges,
        plan.current_routers,
        plan.target_routers
    ));
    out.push_str("step  action  router            invariants\n");
    out.push_str("----  ------  ----------------  ----------\n");
    for (i, (unit, verdict)) in plan.steps().enumerate() {
        let passed = verdict.checks.iter().filter(|c| c.ok).count();
        out.push_str(&format!(
            "{:>4}  {:<6}  {:<16}  {}/{} ok\n",
            i + 1,
            unit.kind.verb(),
            unit.router,
            passed,
            verdict.checks.len()
        ));
    }
    out.push('\n');
    match &plan.naive.violation {
        Some(violation) => {
            out.push_str(&format!(
                "naive sorted order is UNSAFE: step {} ({}) violates {}\n",
                violation.step,
                violation.unit,
                violation
                    .failed
                    .iter()
                    .map(|c| format!("{} ({})", c.invariant, c.detail))
                    .collect::<Vec<_>>()
                    .join("; ")
            ));
        }
        None => out.push_str("naive sorted order happens to be safe too\n"),
    }
    out.push_str(&format!(
        "search: {} state(s) analyzed, {} backtrack(s), {} memo hit(s)\n",
        plan.stats.states_analyzed, plan.stats.backtracks, plan.stats.memo_hits
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChangeKind, ChangeUnit, InvariantCheck, NaiveReport, SearchStats, StepVerdict};

    fn tiny_plan() -> Plan {
        let unit = ChangeUnit {
            kind: ChangeKind::Modify,
            router: "alpha".into(),
            old_file: Some("alpha.cfg".into()),
            new_file: Some("alpha.cfg".into()),
            bytes: Some(b"x".to_vec()),
        };
        let verdict = StepVerdict {
            checks: vec![InvariantCheck {
                invariant: "connectivity",
                ok: true,
                detail: "1 component(s) (envelope 1)".into(),
            }],
        };
        Plan {
            units: vec![unit],
            order: vec![0],
            verdicts: vec![verdict],
            naive: NaiveReport { order: vec!["modify:alpha".into()], violation: None },
            stats: SearchStats { states_analyzed: 1, backtracks: 0, memo_hits: 2 },
            dag_edges: 0,
            current_routers: 1,
            target_routers: 1,
            timings: Default::default(),
        }
    }

    #[test]
    fn json_is_stable_and_mentions_every_section() {
        let json = render_json(&tiny_plan());
        for needle in
            ["\"plan\"", "\"steps\"", "\"naive\"", "\"search\"", "\"violation\": null"]
        {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert_eq!(json, render_json(&tiny_plan()), "rendering must be deterministic");
    }

    #[test]
    fn table_mentions_the_step_and_the_naive_outcome() {
        let table = render_table(&tiny_plan());
        assert!(table.contains("modify  alpha"));
        assert!(table.contains("naive sorted order happens to be safe too"));
    }
}
