//! Looks inside the engine: compiles a query to its alternating selecting
//! tree automaton and prints the transitions plus the on-the-fly top-down
//! approximation's jump sets (reproducing the Fig. 1 illustration).
//!
//! ```sh
//! cargo run --example automaton_explorer -- '//a//b[c]'
//! ```

use xwq::core::{compile_path, Formula, SkipKind, Tda};
use xwq::xml::Alphabet;
use xwq::xpath::parse_xpath;

fn fmt_phi(phi: &Formula) -> String {
    match phi {
        Formula::True => "⊤".into(),
        Formula::False => "⊥".into(),
        Formula::Or(a, b) => format!("({} ∨ {})", fmt_phi(a), fmt_phi(b)),
        Formula::And(a, b) => format!("({} ∧ {})", fmt_phi(a), fmt_phi(b)),
        Formula::Not(a) => format!("¬{}", fmt_phi(a)),
        Formula::Down1(q) => format!("↓1 q{q}"),
        Formula::Down2(q) => format!("↓2 q{q}"),
    }
}

fn main() {
    let query = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "//a//b[c]".into());
    // A demonstration alphabet; real engines compile against the document's.
    let mut alphabet = Alphabet::new();
    for l in ["a", "b", "c", "d", "#text"] {
        alphabet.intern(l);
    }
    let path = parse_xpath(&query).expect("parseable query");
    println!("query : {query}");
    println!("parsed: {path}\n");

    let asta = compile_path(&path, &alphabet).expect("compilable query");
    println!(
        "ASTA: {} states, top states {:?}",
        asta.n_states,
        asta.top.iter().map(|q| format!("q{q}")).collect::<Vec<_>>()
    );
    for t in &asta.delta {
        let labels: Vec<&str> = t.labels.iter().map(|l| alphabet.name(l)).collect();
        let arrow = if t.selecting { "⇒" } else { "→" };
        println!(
            "   q{}, {{{}}} {arrow} {}",
            t.q,
            labels.join(","),
            fmt_phi(&t.phi)
        );
    }

    // Walk the top-down approximation from the top set, breadth-first,
    // printing each reachable state set's skip classification.
    println!("\ntop-down approximation (Def. 4.2) and jumps:");
    let mut tda = Tda::new(&asta);
    let start = tda.top_set(&asta);
    let mut seen = vec![start];
    let mut queue = vec![start];
    let mut stats = xwq::core::EvalStats::default();
    while let Some(set) = queue.pop() {
        let members: Vec<String> = tda.sets.get(set).iter().map(|q| format!("q{q}")).collect();
        let info = tda.skip_info(&asta, set);
        let jump: Vec<&str> = info.jump.iter().map(|l| alphabet.name(l)).collect();
        let how = match info.kind {
            SkipKind::Both => format!("jump dt/ft to top-most {{{}}}", jump.join(",")),
            SkipKind::Right => format!("jump rt along siblings to {{{}}}", jump.join(",")),
            SkipKind::Left => format!("jump lt along first-children to {{{}}}", jump.join(",")),
            SkipKind::None => "no jump (step node by node)".into(),
        };
        println!("   {{{}}} : {how}", members.join(","));
        for l in alphabet.ids() {
            let t = tda.trans(&asta, set, l, &mut stats);
            let t = tda.trans_at(t);
            for next in [t.r1, t.r2] {
                if !seen.contains(&next) && !tda.sets.get(next).is_empty() {
                    seen.push(next);
                    queue.push(next);
                }
            }
        }
    }
}
