//! Textual Gamma language — the paper's Fig. 3 free-context grammar.
//!
//! The paper presents its examples as Gamma source in the syntax of
//! Muylaert's implementation (`replace … by … if … / by 0 else`, plus the
//! `where` form of Eq. (2)). This crate makes that syntax executable:
//!
//! * [`lexer`] — tokens with positions; accepts the paper's capitalised
//!   `If`, `#`/`//` comments, `|` (parallel) and `;` (sequential)
//!   composition operators.
//! * [`parser`] — recursive descent into [`ReactionSpec`]s /
//!   [`GammaProgram`]s / [`Pipeline`]s. The AST *is* the executable spec
//!   from the gamma crate, so parsed programs run directly.
//! * [`normalize`] — lifts paper-style label disjunctions
//!   (`if (x=='A1') or (x=='A11')`) into indexable `OneOf` patterns.
//! * [`pretty`] — prints specs back in paper style;
//!   `parse ∘ pretty = id` (property-tested).
//!
//! [`ReactionSpec`]: gammaflow_gamma::spec::ReactionSpec
//! [`GammaProgram`]: gammaflow_gamma::spec::GammaProgram
//! [`Pipeline`]: gammaflow_gamma::spec::Pipeline

#![warn(missing_docs)]

pub mod lexer;
pub mod normalize;
pub mod parser;
pub mod pretty;

pub use lexer::{lex, LexError, Spanned, Tok};
pub use normalize::normalize_reaction;
pub use parser::{
    parse_expr, parse_multiset, parse_pipeline, parse_program, parse_reaction, ParseError,
};
pub use pretty::{pretty_pipeline, pretty_program, pretty_reaction};

#[cfg(test)]
mod tests {
    use super::*;
    use gammaflow_gamma::{Selection, Session, Status};
    use gammaflow_multiset::{Element, ElementBag};

    /// End-to-end: parse the paper's Example-1 program and run it on the
    /// sequential interpreter with the paper's initial multiset.
    #[test]
    fn example1_program_parses_and_runs() {
        let src = "
R1 = replace [id1, 'A1'], [id2, 'B1']
     by [id1 + id2, 'B2']
R2 = replace [id1, 'C1'], [id2, 'D1']
     by [id1 * id2, 'C2']
R3 = replace [id1, 'B2'], [id2, 'C2']
     by [id1 - id2, 'm']
";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.len(), 3);
        // Initial multiset {[1,A1],[5,B1],[3,C1],[2,D1]} from the paper.
        let initial: ElementBag = [
            Element::pair(1, "A1"),
            Element::pair(5, "B1"),
            Element::pair(3, "C1"),
            Element::pair(2, "D1"),
        ]
        .into_iter()
        .collect();
        let result = Session::build(&prog).run(initial).unwrap();
        assert_eq!(result.status, Status::Stable);
        // m = (1+5) - (3*2) = 0.
        assert_eq!(
            result.multiset.sorted_elements(),
            vec![Element::pair(0, "m")]
        );
    }

    /// The reduced single-reaction version (§III-A3, Rd1) computes the same
    /// result.
    #[test]
    fn example1_reduced_program_runs() {
        let src = "
Rd1 = replace [id1,'A1'], [id2,'B1'], [id3,'C1'], [id4,'D1']
      by [(id1+id2)-(id3*id4),'m']
";
        let prog = parse_program(src).unwrap();
        let initial: ElementBag = [
            Element::pair(1, "A1"),
            Element::pair(5, "B1"),
            Element::pair(3, "C1"),
            Element::pair(2, "D1"),
        ]
        .into_iter()
        .collect();
        let result = Session::build(&prog).run(initial).unwrap();
        assert_eq!(
            result.multiset.sorted_elements(),
            vec![Element::pair(0, "m")]
        );
    }

    /// Parse the paper's full Example-2 program (reactions R11–R19) and run
    /// the loop for z = 3: x := x + y three times.
    #[test]
    fn example2_program_parses_and_runs() {
        let src = "
R11 = replace [id1,x,v] by [id1,'A12',v+1] if (x=='A1') or (x=='A11')
R12 = replace [id1,x,v] by [id1,'B12',v+1], [id1,'B13',v+1] if (x=='B1') or (x=='B11')
R13 = replace [id1,x,v] by [id1,'C12',v+1] if (x=='C1') or (x=='C11')
R14 = replace [id1, 'B12', v]
      by [1,'B14',v], [1,'B15',v], [1,'B16',v] If id1 > 0
      by [0,'B14',v], [0,'B15',v], [0,'B16',v] else
R15 = replace [id1,'A12',v], [id2,'B14',v]
      by [id1,'A11',v], [id1,'A13',v] If id2 == 1
      by 0 else
R16 = replace [id1,'B13',v], [id2,'B15',v]
      by [id1,'B17',v] If id2 == 1
      by 0 else
R17 = replace [id1,'C12',v], [id2,'B16',v]
      by [id1,'C13',v] If id2 == 1
      by 0 else
R18 = replace [id1,'B17',v] by [id1 - 1,'B11',v]
R19 = replace [id1,'A13',v], [id2,'C13',v] by [id1+id2,'C11',v]
";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.len(), 9);
        // {y=5 on A1, z=3 on B1, x=10 on C1}, all at tag 0.
        let initial: ElementBag = [
            Element::new(5, "A1", 0u64),
            Element::new(3, "B1", 0u64),
            Element::new(10, "C1", 0u64),
        ]
        .into_iter()
        .collect();
        let result = Session::build(&prog)
            .selection(Selection::Seeded(7))
            .run(initial)
            .unwrap();
        assert_eq!(result.status, Status::Stable);
        // As the paper writes Example 2, every steer discards its data on
        // the final (false) test, so the steady state is an empty multiset.
        assert!(
            result.multiset.is_empty(),
            "paper's Example 2 drains the multiset, got {}",
            result.multiset
        );
        // The loop really ran: R19 (the x += y adder) fired exactly z = 3
        // times.
        let r19_idx = prog.reactions.iter().position(|r| r.name == "R19").unwrap();
        assert_eq!(result.stats.firings_per_reaction[r19_idx], 3);
    }
}
