//! The answer oracle: evaluates the benchmark's queries straight from the
//! generated triples, sharing no code with the query pipeline (`sparql`,
//! `transform`, `core` and `engine` are not used here).
//!
//! It keeps the triples sorted twice, by (predicate, subject, object) and
//! by (predicate, object, subject), and answers a [`Bgp`] by backtracking:
//! at every step it extends the partial solution through the pattern with
//! the fewest candidates under the current bindings. Answers are compared
//! as [`Digest`]s of their rows, so a served result and the oracle's agree
//! exactly when they hold the same multiset of rows.

use crate::templates::{Bgp, Slot};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use turbohom_rdf::{Dataset, Term};

/// An order-independent fingerprint of a multiset of result rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    sum: u64,
    xor: u64,
}

impl Digest {
    /// Adds one row, given as its canonical key (see [`row_key_push`]).
    pub fn add(&mut self, key: &str) {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        let h = h.finish();
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= h.rotate_left(17);
    }
}

/// Appends one bound value to a row key: type, value, language and datatype
/// separated by unit separators, closed by a record separator. The JSON side
/// builds the same key from a SPARQL-JSON binding object.
pub fn row_key_push(key: &mut String, kind: &str, value: &str, lang: &str, datatype: &str) {
    for part in [kind, value, lang, datatype] {
        key.push_str(part);
        key.push('\u{1f}');
    }
    key.push('\u{1e}');
}

fn term_key_push(key: &mut String, term: &Term) {
    match term {
        Term::Iri(iri) => row_key_push(key, "uri", iri, "", ""),
        Term::BlankNode(label) => row_key_push(key, "bnode", label, "", ""),
        Term::Literal {
            lexical,
            datatype,
            language,
        } => row_key_push(
            key,
            "literal",
            lexical,
            language.as_deref().unwrap_or(""),
            datatype.as_deref().unwrap_or(""),
        ),
    }
}

/// A pattern position resolved against the dictionary.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pos {
    Var(usize),
    Const(u64),
}

/// The oracle's own index over one generated dataset.
pub struct Oracle {
    /// Every term, by dictionary id.
    terms: Vec<Term>,
    iris: HashMap<String, u64>,
    /// Triples as (p, s, o), sorted.
    pso: Vec<[u64; 3]>,
    /// Triples as (p, o, s), sorted.
    pos: Vec<[u64; 3]>,
}

impl Oracle {
    pub fn new(ds: &Dataset) -> Oracle {
        let mut terms = vec![Term::iri(""); ds.dictionary.len()];
        let mut iris = HashMap::new();
        for (id, term) in ds.dictionary.iter() {
            if let Term::Iri(iri) = &term {
                iris.insert(iri.clone(), id.0);
            }
            terms[id.index()] = term;
        }
        let mut pso: Vec<[u64; 3]> = ds.triples.iter().map(|t| [t.p.0, t.s.0, t.o.0]).collect();
        let mut pos: Vec<[u64; 3]> = pso.iter().map(|&[p, s, o]| [p, o, s]).collect();
        pso.sort_unstable();
        pos.sort_unstable();
        Oracle {
            terms,
            iris,
            pso,
            pos,
        }
    }

    /// Number of indexed triples.
    pub fn triple_count(&self) -> usize {
        self.pso.len()
    }

    /// The rows of `bgp` as dictionary ids, one per solution, in projection
    /// order (bag semantics, as the engine answers a `SELECT` without
    /// `DISTINCT`).
    pub fn solve(&self, bgp: &Bgp) -> Vec<Vec<u64>> {
        let mut names: Vec<&'static str> = Vec::new();
        let mut resolve = |slot: &Slot| -> Option<Pos> {
            match slot {
                Slot::Var(v) => Some(Pos::Var(match names.iter().position(|n| n == v) {
                    Some(i) => i,
                    None => {
                        names.push(v);
                        names.len() - 1
                    }
                })),
                Slot::Iri(iri) => self.iris.get(iri).map(|&id| Pos::Const(id)),
            }
        };
        let mut patterns = Vec::new();
        for t in &bgp.patterns {
            let (Some(s), Some(o), Some(&p)) = (resolve(&t.s), resolve(&t.o), self.iris.get(&t.p))
            else {
                // A constant missing from the data matches nothing.
                return Vec::new();
            };
            patterns.push((s, p, o));
        }
        let projection: Vec<usize> = bgp
            .vars
            .iter()
            .map(|v| {
                names
                    .iter()
                    .position(|n| n == v)
                    .expect("projected variable in the pattern")
            })
            .collect();
        let mut rows = Vec::new();
        let mut binding = vec![None; names.len()];
        let mut done = vec![false; patterns.len()];
        self.extend(&patterns, &mut done, &mut binding, &projection, &mut rows);
        rows
    }

    /// The candidate (subject, object) pairs of one pattern under `binding`.
    fn candidates(&self, (s, p, o): (Pos, u64, Pos), binding: &[Option<u64>]) -> Vec<(u64, u64)> {
        let value = |pos: Pos| match pos {
            Pos::Const(c) => Some(c),
            Pos::Var(v) => binding[v],
        };
        match (value(s), value(o)) {
            (Some(s), Some(o)) => {
                let hit = self.pso.binary_search(&[p, s, o]).is_ok();
                if hit {
                    vec![(s, o)]
                } else {
                    Vec::new()
                }
            }
            (Some(s), None) => range(&self.pso, &[p, s])
                .iter()
                .map(|t| (s, t[2]))
                .collect(),
            (None, Some(o)) => range(&self.pos, &[p, o])
                .iter()
                .map(|t| (t[2], o))
                .collect(),
            (None, None) => range(&self.pso, &[p])
                .iter()
                .map(|t| (t[1], t[2]))
                .collect(),
        }
    }

    fn candidate_count(&self, (s, p, o): (Pos, u64, Pos), binding: &[Option<u64>]) -> usize {
        let value = |pos: Pos| match pos {
            Pos::Const(c) => Some(c),
            Pos::Var(v) => binding[v],
        };
        match (value(s), value(o)) {
            (Some(_), Some(_)) => 1,
            (Some(s), None) => range(&self.pso, &[p, s]).len(),
            (None, Some(o)) => range(&self.pos, &[p, o]).len(),
            (None, None) => range(&self.pso, &[p]).len(),
        }
    }

    fn extend(
        &self,
        patterns: &[(Pos, u64, Pos)],
        done: &mut [bool],
        binding: &mut Vec<Option<u64>>,
        projection: &[usize],
        rows: &mut Vec<Vec<u64>>,
    ) {
        let next = (0..patterns.len())
            .filter(|&i| !done[i])
            .min_by_key(|&i| self.candidate_count(patterns[i], binding));
        let Some(next) = next else {
            rows.push(
                projection
                    .iter()
                    .map(|&v| binding[v].expect("every variable bound"))
                    .collect(),
            );
            return;
        };
        done[next] = true;
        let (s, _, o) = patterns[next];
        for (sv, ov) in self.candidates(patterns[next], binding) {
            let saved = binding.clone();
            if bind(binding, s, sv) && bind(binding, o, ov) {
                self.extend(patterns, done, binding, projection, rows);
            }
            *binding = saved;
        }
        done[next] = false;
    }

    /// The digest of `bgp`'s answer.
    pub fn digest(&self, bgp: &Bgp) -> Digest {
        let mut digest = Digest::default();
        let mut key = String::new();
        for row in self.solve(bgp) {
            key.clear();
            for id in row {
                term_key_push(&mut key, &self.terms[id as usize]);
            }
            digest.add(&key);
        }
        digest
    }
}

/// Binds a variable position to `value`; false when it is bound to another
/// value already (or a constant differs).
fn bind(binding: &mut [Option<u64>], pos: Pos, value: u64) -> bool {
    match pos {
        Pos::Const(c) => c == value,
        Pos::Var(v) => match binding[v] {
            Some(bound) => bound == value,
            None => {
                binding[v] = Some(value);
                true
            }
        },
    }
}

/// The slice of sorted `triples` whose leading components equal `prefix`.
fn range<'a>(triples: &'a [[u64; 3]], prefix: &[u64]) -> &'a [[u64; 3]] {
    let lo = triples.partition_point(|t| t[..prefix.len()] < *prefix);
    let hi = triples.partition_point(|t| t[..prefix.len()] <= *prefix);
    &triples[lo..hi]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::{analytic_bgp, closed_form_count, ANALYTIC_IDS, POINT_TEMPLATES};
    use turbohom_datasets::lubm::{LubmConfig, LubmGenerator};

    /// Backtracking over the plain triple list (grouped by predicate),
    /// patterns in written order: the slowest evaluation there is, and the
    /// easiest to trust.
    fn brute_force(ds: &Dataset, bgp: &Bgp) -> Vec<Vec<String>> {
        let mut by_predicate: HashMap<String, Vec<(Term, Term)>> = HashMap::new();
        for t in ds.triples.iter() {
            let (s, p, o) = ds.decode(t);
            let Term::Iri(p) = p else {
                panic!("predicate is an IRI")
            };
            by_predicate.entry(p).or_default().push((s, o));
        }
        let mut rows = Vec::new();
        walk(&by_predicate, bgp, 0, &mut Vec::new(), &mut rows);
        rows.sort();
        rows
    }

    fn walk(
        by_predicate: &HashMap<String, Vec<(Term, Term)>>,
        bgp: &Bgp,
        depth: usize,
        binding: &mut Vec<(&'static str, Term)>,
        rows: &mut Vec<Vec<String>>,
    ) {
        let Some(pattern) = bgp.patterns.get(depth) else {
            let value = |v: &&str| binding.iter().find(|(n, _)| n == v).unwrap().1.clone();
            rows.push(bgp.vars.iter().map(|v| format!("{:?}", value(v))).collect());
            return;
        };
        for (s, o) in by_predicate.get(&pattern.p).into_iter().flatten() {
            let depth_before = binding.len();
            let ok =
                [(&pattern.s, s), (&pattern.o, o)]
                    .into_iter()
                    .all(|(slot, term)| match slot {
                        Slot::Iri(iri) => matches!(term, Term::Iri(t) if t == iri),
                        Slot::Var(v) => match binding.iter().find(|(n, _)| n == v) {
                            Some((_, bound)) => bound == term,
                            None => {
                                binding.push((v, term.clone()));
                                true
                            }
                        },
                    });
            if ok {
                walk(by_predicate, bgp, depth + 1, binding, rows);
            }
            binding.truncate(depth_before);
        }
    }

    fn oracle_rows(oracle: &Oracle, bgp: &Bgp) -> Vec<Vec<String>> {
        let mut rows: Vec<Vec<String>> = oracle
            .solve(bgp)
            .into_iter()
            .map(|row| {
                row.iter()
                    .map(|&id| format!("{:?}", oracle.terms[id as usize]))
                    .collect()
            })
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn oracle_agrees_with_brute_force_at_scale_one() {
        let cfg = LubmConfig::scale(1);
        let ds = LubmGenerator::new(cfg).generate();
        let oracle = Oracle::new(&ds);
        let mut nonempty = 0;
        for t in POINT_TEMPLATES {
            // The first and last value of each space, plus a constant that
            // does not occur in the data.
            let values = t.space.values(&cfg);
            let constants = [
                values[0].clone(),
                values[values.len() - 1].clone(),
                "http://www.Department9.University9.edu".to_string(),
            ];
            for c in constants {
                let bgp = t.bgp(&c);
                let expected = brute_force(&ds, &bgp);
                nonempty += usize::from(!expected.is_empty());
                assert_eq!(oracle_rows(&oracle, &bgp), expected, "{} {c}", t.id);
            }
        }
        assert!(nonempty >= 18, "every template answers its real constants");
        for id in ANALYTIC_IDS {
            let bgp = analytic_bgp(id);
            let expected = brute_force(&ds, &bgp);
            assert!(!expected.is_empty(), "{id}");
            assert_eq!(oracle_rows(&oracle, &bgp), expected, "{id}");
            if let Some(count) = closed_form_count(id, &cfg) {
                assert_eq!(expected.len(), count, "closed form of {id}");
            }
        }
    }

    #[test]
    fn digests_ignore_row_order_but_not_content() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.add("x");
        a.add("y");
        b.add("y");
        b.add("x");
        assert_eq!(a, b);
        b.add("x");
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.add("x");
        c.add("z");
        assert_ne!(a, c);
    }
}
