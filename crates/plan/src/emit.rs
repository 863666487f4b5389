//! Plan rendering: the human step table and the canonical JSON document.
//!
//! Both renderings are pure functions of the [`Plan`] (wall-clock
//! timings are deliberately excluded), so plan output is byte-identical
//! across runs and thread counts — the property verify.sh's plan stage
//! pins with `cmp`.

use rd_obs::json::escape;

use crate::{Plan, StepVerdict};

fn push_checks(out: &mut String, verdict: &StepVerdict, indent: &str) {
    out.push_str("[\n");
    for (i, check) in verdict.checks.iter().enumerate() {
        out.push_str(&format!(
            "{indent}  {{\"invariant\": \"{}\", \"ok\": {}, \"detail\": \"{}\"}}{}\n",
            check.invariant,
            check.ok,
            escape(&check.detail),
            if i + 1 < verdict.checks.len() { "," } else { "" },
        ));
    }
    out.push_str(indent);
    out.push(']');
}

/// Renders the plan as the canonical JSON document — the exact bytes
/// `rdx plan --json` prints and rd-serve's `/plan` endpoint serves.
pub fn render_json(plan: &Plan) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"plan\": {\n");
    out.push_str(&format!(
        "    \"current_routers\": {},\n    \"target_routers\": {},\n",
        plan.current_routers, plan.target_routers
    ));
    out.push_str(&format!(
        "    \"units\": {},\n    \"dag_edges\": {},\n",
        plan.units.len(),
        plan.dag_edges
    ));
    out.push_str("    \"steps\": [");
    let steps: Vec<_> = plan.steps().collect();
    for (i, (unit, verdict)) in steps.iter().enumerate() {
        out.push_str("\n      {\n");
        out.push_str(&format!(
            "        \"step\": {},\n        \"action\": \"{}\",\n        \"router\": \"{}\",\n",
            i + 1,
            unit.kind.verb(),
            escape(&unit.router)
        ));
        if let Some(old) = &unit.old_file {
            out.push_str(&format!("        \"old_file\": \"{}\",\n", escape(old)));
        }
        if let Some(new) = &unit.new_file {
            out.push_str(&format!("        \"new_file\": \"{}\",\n", escape(new)));
        }
        out.push_str("        \"checks\": ");
        push_checks(&mut out, verdict, "        ");
        out.push_str("\n      }");
        if i + 1 < steps.len() {
            out.push(',');
        }
    }
    if steps.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n    ],\n");
    }
    out.push_str("    \"naive\": {\n      \"order\": [");
    for (i, key) in plan.naive.order.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\"", escape(key)));
    }
    out.push_str("],\n");
    match &plan.naive.violation {
        Some(violation) => {
            out.push_str(&format!(
                "      \"violation\": {{\n        \"step\": {},\n        \"unit\": \"{}\",\n        \"failed\": ",
                violation.step,
                escape(&violation.unit)
            ));
            push_checks(
                &mut out,
                &StepVerdict { checks: violation.failed.clone() },
                "        ",
            );
            out.push_str("\n      }\n");
        }
        None => out.push_str("      \"violation\": null\n"),
    }
    out.push_str("    },\n");
    out.push_str(&format!(
        "    \"search\": {{\"states_analyzed\": {}, \"backtracks\": {}, \"memo_hits\": {}}}\n",
        plan.stats.states_analyzed, plan.stats.backtracks, plan.stats.memo_hits
    ));
    out.push_str("  }\n}\n");
    out
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
    use crate::{ChangeKind, ChangeUnit, InvariantCheck, NaiveReport, SearchStats};

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
