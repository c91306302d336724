//! The benchmark's queries, written once as basic graph patterns.
//!
//! Each LUBM query the benchmark sends is a [`Bgp`]: the same value renders
//! the SPARQL text the engine receives ([`Bgp::to_sparql`]) and is what the
//! answer oracle evaluates, so the two can never drift apart. The point
//! templates take one IRI constant; [`ParamSpace`] enumerates every value it
//! can take in a LUBM store from the generator's naming convention.

use turbohom_datasets::lubm::{LubmConfig, UB};

/// The `rdf:type` IRI.
pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// One position of a triple pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Slot {
    /// A variable, by name (without `?`).
    Var(&'static str),
    /// A constant IRI.
    Iri(String),
}

/// One triple pattern; the predicate is always a constant IRI.
#[derive(Debug, Clone)]
pub struct Pattern {
    pub s: Slot,
    pub p: String,
    pub o: Slot,
}

/// A basic graph pattern with its projection.
#[derive(Debug, Clone)]
pub struct Bgp {
    /// Projected variables, in output order.
    pub vars: Vec<&'static str>,
    pub patterns: Vec<Pattern>,
}

impl Bgp {
    /// Renders the query as LUBM clients send it: `rdf:`/`ub:` prefixes,
    /// one `SELECT` over a single group.
    pub fn to_sparql(&self) -> String {
        let mut out = format!(
            "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\nPREFIX ub: <{UB}>\nSELECT"
        );
        for v in &self.vars {
            out.push_str(" ?");
            out.push_str(v);
        }
        out.push_str(" WHERE {");
        for t in &self.patterns {
            out.push(' ');
            push_slot(&mut out, &t.s);
            out.push(' ');
            push_iri(&mut out, &t.p);
            out.push(' ');
            push_slot(&mut out, &t.o);
            out.push_str(" .");
        }
        out.push_str(" }");
        out
    }
}

fn push_slot(out: &mut String, slot: &Slot) {
    match slot {
        Slot::Var(v) => {
            out.push('?');
            out.push_str(v);
        }
        Slot::Iri(iri) => push_iri(out, iri),
    }
}

fn push_iri(out: &mut String, iri: &str) {
    if iri == RDF_TYPE {
        out.push_str("rdf:type");
    } else if let Some(local) = iri.strip_prefix(UB) {
        out.push_str("ub:");
        out.push_str(local);
    } else {
        out.push('<');
        out.push_str(iri);
        out.push('>');
    }
}

fn ub(local: &str) -> String {
    format!("{UB}{local}")
}

fn var(v: &'static str) -> Slot {
    Slot::Var(v)
}

fn class(x: &'static str, c: &str) -> Pattern {
    Pattern {
        s: var(x),
        p: RDF_TYPE.into(),
        o: Slot::Iri(ub(c)),
    }
}

fn edge(s: Slot, p: &str, o: Slot) -> Pattern {
    Pattern { s, p: ub(p), o }
}

/// What a point template's constant ranges over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamSpace {
    GraduateCourse,
    AssistantProfessor,
    AssociateProfessor,
    Department,
    University,
}

impl ParamSpace {
    /// Every IRI the constant can take in a store generated from `cfg`.
    pub fn values(self, cfg: &LubmConfig) -> Vec<String> {
        let mut out = Vec::new();
        for u in 0..cfg.universities {
            if self == ParamSpace::University {
                out.push(format!("http://www.University{u}.edu"));
                continue;
            }
            for d in 0..cfg.departments_per_university {
                let dept = format!("http://www.Department{d}.University{u}.edu");
                match self {
                    ParamSpace::Department => out.push(dept),
                    ParamSpace::GraduateCourse => {
                        for c in 0..cfg.graduate_courses_per_department {
                            out.push(format!("{dept}/GraduateCourse{c}"));
                        }
                    }
                    // The generator cycles professor kinds Full, Associate,
                    // Assistant and numbers each kind from 0.
                    ParamSpace::AssociateProfessor | ParamSpace::AssistantProfessor => {
                        let (kind, name) = if self == ParamSpace::AssociateProfessor {
                            (1, "AssociateProfessor")
                        } else {
                            (2, "AssistantProfessor")
                        };
                        for p in (kind..cfg.professors_per_department).step_by(3) {
                            out.push(format!("{dept}/{name}{}", p / 3));
                        }
                    }
                    ParamSpace::University => unreachable!("handled above"),
                }
            }
        }
        out
    }
}

/// A constant-solution LUBM query with its constant left open.
#[derive(Debug, Clone, Copy)]
pub struct PointTemplate {
    pub id: &'static str,
    pub space: ParamSpace,
}

/// The paper's constant-solution queries (Q1, Q3, Q4, Q5, Q7, Q8, Q10, Q11,
/// Q12), in the order one request round sends them.
pub const POINT_TEMPLATES: [PointTemplate; 9] = [
    PointTemplate {
        id: "Q1",
        space: ParamSpace::GraduateCourse,
    },
    PointTemplate {
        id: "Q3",
        space: ParamSpace::AssistantProfessor,
    },
    PointTemplate {
        id: "Q4",
        space: ParamSpace::Department,
    },
    PointTemplate {
        id: "Q5",
        space: ParamSpace::Department,
    },
    PointTemplate {
        id: "Q7",
        space: ParamSpace::AssociateProfessor,
    },
    PointTemplate {
        id: "Q8",
        space: ParamSpace::University,
    },
    PointTemplate {
        id: "Q10",
        space: ParamSpace::GraduateCourse,
    },
    PointTemplate {
        id: "Q11",
        space: ParamSpace::University,
    },
    PointTemplate {
        id: "Q12",
        space: ParamSpace::University,
    },
];

impl PointTemplate {
    /// The query with `constant` filled in, pattern for pattern as LUBM
    /// writes it.
    pub fn bgp(&self, constant: &str) -> Bgp {
        let c = || Slot::Iri(constant.to_string());
        let (vars, patterns) = match self.id {
            "Q1" => (
                vec!["X"],
                vec![
                    class("X", "GraduateStudent"),
                    edge(var("X"), "takesCourse", c()),
                ],
            ),
            "Q3" => (
                vec!["X"],
                vec![
                    class("X", "Publication"),
                    edge(var("X"), "publicationAuthor", c()),
                ],
            ),
            "Q4" => (
                vec!["X", "Y1", "Y2", "Y3"],
                vec![
                    class("X", "Professor"),
                    edge(var("X"), "worksFor", c()),
                    edge(var("X"), "name", var("Y1")),
                    edge(var("X"), "emailAddress", var("Y2")),
                    edge(var("X"), "telephone", var("Y3")),
                ],
            ),
            "Q5" => (
                vec!["X"],
                vec![class("X", "Person"), edge(var("X"), "memberOf", c())],
            ),
            "Q7" => (
                vec!["X", "Y"],
                vec![
                    class("X", "Student"),
                    class("Y", "Course"),
                    edge(var("X"), "takesCourse", var("Y")),
                    edge(c(), "teacherOf", var("Y")),
                ],
            ),
            "Q8" => (
                vec!["X", "Y", "Z"],
                vec![
                    class("X", "Student"),
                    class("Y", "Department"),
                    edge(var("X"), "memberOf", var("Y")),
                    edge(var("Y"), "subOrganizationOf", c()),
                    edge(var("X"), "emailAddress", var("Z")),
                ],
            ),
            "Q10" => (
                vec!["X"],
                vec![class("X", "Student"), edge(var("X"), "takesCourse", c())],
            ),
            "Q11" => (
                vec!["X"],
                vec![
                    class("X", "ResearchGroup"),
                    edge(var("X"), "subOrganizationOf", c()),
                ],
            ),
            "Q12" => (
                vec!["X", "Y"],
                vec![
                    class("X", "Chair"),
                    class("Y", "Department"),
                    edge(var("X"), "worksFor", var("Y")),
                    edge(var("Y"), "subOrganizationOf", c()),
                ],
            ),
            other => unreachable!("no point template {other}"),
        };
        Bgp { vars, patterns }
    }
}

/// The paper's increasing-solution queries, in the order one analytic round
/// sends them.
pub const ANALYTIC_IDS: [&str; 5] = ["Q2", "Q6", "Q9", "Q13", "Q14"];

/// An increasing-solution query as LUBM writes it.
pub fn analytic_bgp(id: &str) -> Bgp {
    let (vars, patterns) = match id {
        "Q2" => (
            vec!["X", "Y", "Z"],
            vec![
                class("X", "GraduateStudent"),
                class("Y", "University"),
                class("Z", "Department"),
                edge(var("X"), "memberOf", var("Z")),
                edge(var("Z"), "subOrganizationOf", var("Y")),
                edge(var("X"), "undergraduateDegreeFrom", var("Y")),
            ],
        ),
        "Q6" => (vec!["X"], vec![class("X", "Student")]),
        "Q9" => (
            vec!["X", "Y", "Z"],
            vec![
                class("X", "Student"),
                class("Y", "Faculty"),
                class("Z", "Course"),
                edge(var("X"), "advisor", var("Y")),
                edge(var("Y"), "teacherOf", var("Z")),
                edge(var("X"), "takesCourse", var("Z")),
            ],
        ),
        "Q13" => (
            vec!["X"],
            vec![
                class("X", "Person"),
                edge(
                    Slot::Iri("http://www.University0.edu".into()),
                    "hasAlumnus",
                    var("X"),
                ),
            ],
        ),
        "Q14" => (vec!["X"], vec![class("X", "UndergraduateStudent")]),
        other => unreachable!("no analytic query {other}"),
    };
    Bgp { vars, patterns }
}

/// The closed-form answer size of Q6 (all students) and Q14 (all
/// undergraduates): every department holds the configured number of each.
pub fn closed_form_count(id: &str, cfg: &LubmConfig) -> Option<usize> {
    let departments = cfg.universities * cfg.departments_per_university;
    match id {
        "Q6" => {
            Some(departments * (cfg.undergraduates_per_department + cfg.graduates_per_department))
        }
        "Q14" => Some(departments * cfg.undergraduates_per_department),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbohom_datasets::lubm;
    use turbohom_sparql::fingerprint;

    /// With LUBM's own constants, every template is the LUBM query token
    /// for token.
    #[test]
    fn templates_match_the_lubm_queries() {
        let lubm: Vec<_> = lubm::queries();
        let text = |id: &str| &lubm.iter().find(|q| q.id == id).unwrap().sparql;
        let canonical = |q: &str| fingerprint(q).unwrap().canonical;
        let lubm_constant = |space: ParamSpace| match space {
            ParamSpace::GraduateCourse => "http://www.Department0.University0.edu/GraduateCourse0",
            ParamSpace::AssistantProfessor => {
                "http://www.Department0.University0.edu/AssistantProfessor0"
            }
            ParamSpace::AssociateProfessor => {
                "http://www.Department0.University0.edu/AssociateProfessor0"
            }
            ParamSpace::Department => "http://www.Department0.University0.edu",
            ParamSpace::University => "http://www.University0.edu",
        };
        for t in POINT_TEMPLATES {
            let ours = t.bgp(lubm_constant(t.space)).to_sparql();
            assert_eq!(canonical(&ours), canonical(text(t.id)), "{}", t.id);
        }
        for id in ANALYTIC_IDS {
            assert_eq!(
                canonical(&analytic_bgp(id).to_sparql()),
                canonical(text(id)),
                "{id}"
            );
        }
    }

    #[test]
    fn parameter_spaces_follow_the_generator() {
        let cfg = LubmConfig::scale(2);
        assert_eq!(ParamSpace::University.values(&cfg).len(), 2);
        assert_eq!(ParamSpace::Department.values(&cfg).len(), 6);
        assert_eq!(ParamSpace::GraduateCourse.values(&cfg).len(), 30);
        let assistants = ParamSpace::AssistantProfessor.values(&cfg);
        assert_eq!(assistants.len(), 12);
        assert!(assistants
            .contains(&"http://www.Department2.University1.edu/AssistantProfessor1".to_string()));
        assert_eq!(ParamSpace::AssociateProfessor.values(&cfg).len(), 12);
    }
}
