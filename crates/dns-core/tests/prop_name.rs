//! Property tests: [`Name`] against a `Vec<Vec<u8>>` label model.
//!
//! The model is the obvious representation (one lowercased byte string per
//! label, leftmost first) whose derived `Ord`, `Eq` and `Hash` are the
//! contract. `Name` stores one flat wire buffer instead, so every
//! observable here must still agree with the model — above all ordering,
//! which must stay label-wise even where byte-wise buffer order disagrees.

use cde_dns::wire::{WireReader, WireWriter};
use cde_dns::Name;
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

type Model = Vec<Vec<u8>>;

/// One label as written (mixed case); the model lowercases it.
fn label() -> impl Strategy<Value = String> {
    prop_oneof![
        // Tiny alphabet: frequent equal labels and prefix pairs, where
        // label order and buffer order disagree.
        proptest::string::string_regex("[abAB]{1,3}").expect("valid regex"),
        proptest::string::string_regex("[a-zA-Z0-9*_-]{1,12}").expect("valid regex"),
        // Near the 63-octet limit; `-` and digits double as length octets.
        proptest::string::string_regex("[a0-]{60,63}").expect("valid regex"),
    ]
}

/// Up to three labels of any length (3 × 64 + 1 ≤ 255) or up to eight
/// short ones.
fn labels() -> impl Strategy<Value = Vec<String>> {
    prop_oneof![
        proptest::collection::vec(label(), 0..=3),
        proptest::collection::vec(
            proptest::string::string_regex("[abAB]{1,3}").expect("valid regex"),
            0..=8
        ),
    ]
}

fn model(labels: &[String]) -> Model {
    labels
        .iter()
        .map(|l| l.to_ascii_lowercase().into_bytes())
        .collect()
}

fn build(labels: &[String]) -> Name {
    Name::from_labels(labels).expect("labels are valid")
}

fn model_display(m: &Model) -> String {
    if m.is_empty() {
        return ".".to_string();
    }
    m.iter()
        .map(|l| format!("{}.", String::from_utf8(l.clone()).unwrap()))
        .collect()
}

fn model_wire_len(m: &Model) -> usize {
    1 + m.iter().map(|l| 1 + l.len()).sum::<usize>()
}

fn hash_of<T: Hash>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

fn to_model(n: &Name) -> Model {
    n.labels().map(<[u8]>::to_vec).collect()
}

/// Asserts every observable of `a` and `b` agrees with their models.
fn assert_pair_agrees(a: &[String], b: &[String]) -> Result<(), TestCaseError> {
    let (na, nb) = (build(a), build(b));
    let (ma, mb) = (model(a), model(b));
    prop_assert_eq!(na.cmp(&nb), ma.cmp(&mb), "{:?} vs {:?}", a, b);
    prop_assert_eq!(na.partial_cmp(&nb), Some(ma.cmp(&mb)));
    prop_assert_eq!(na == nb, ma == mb);
    if ma == mb {
        prop_assert_eq!(hash_of(&na), hash_of(&nb));
    }
    let b_is_suffix = mb.len() <= ma.len() && ma[ma.len() - mb.len()..] == mb[..];
    prop_assert_eq!(na.is_subdomain_of(&nb), b_is_suffix);
    prop_assert_eq!(
        na.is_strict_subdomain_of(&nb),
        b_is_suffix && ma.len() > mb.len()
    );
    Ok(())
}

#[test]
fn fixed_pairs_where_buffer_order_is_wrong_or_prefixes_meet() {
    let cases: [(&[&str], &[&str]); 8] = [
        // Byte-wise buffer order compares the length octet first and gets
        // these backwards: "\x01b" < "\x02aa", yet label `b` > `aa`.
        (&["b"], &["aa"]),
        (&["ba"], &["abc"]),
        (&["a", "c"], &["a", "bb"]),
        (&["z"], &["ab", "c"]),
        // Prefix pairs: a label that extends another, a name that extends
        // another, and the root against everything.
        (&["ab"], &["abc"]),
        (&["a", "b"], &["a"]),
        (&["a"], &["ab"]),
        (&[], &["a"]),
    ];
    for (a, b) in cases {
        let a: Vec<String> = a.iter().map(|s| s.to_string()).collect();
        let b: Vec<String> = b.iter().map(|s| s.to_string()).collect();
        assert_pair_agrees(&a, &b).unwrap();
        assert_pair_agrees(&b, &a).unwrap();
    }
    assert_eq!(
        build(&["b".into()]).cmp(&build(&["aa".into()])),
        Ordering::Greater
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn name_agrees_with_label_model(a in labels()) {
        let n = build(&a);
        let m = model(&a);
        prop_assert_eq!(to_model(&n), m.clone());
        prop_assert_eq!(n.label_count(), m.len());
        prop_assert_eq!(n.is_root(), m.is_empty());
        prop_assert_eq!(n.wire_len(), model_wire_len(&m));
        prop_assert_eq!(n.to_string(), model_display(&m));
        prop_assert_eq!(format!("{n:?}"), format!("Name({})", model_display(&m)));
        prop_assert_eq!(n.first_label().map(<[u8]>::to_vec), m.first().cloned());
        // Case folds away: the lowercased spelling is the same name.
        let lower: Vec<String> = a.iter().map(|l| l.to_ascii_lowercase()).collect();
        let n_lower = build(&lower);
        prop_assert_eq!(&n_lower, &n);
        prop_assert_eq!(hash_of(&n_lower), hash_of(&n));
        prop_assert_eq!(n.to_string().parse::<Name>().unwrap(), n);
    }

    #[test]
    fn ordering_equality_and_hash_agree_with_model(a in labels(), b in labels()) {
        assert_pair_agrees(&a, &b)?;
    }

    #[test]
    fn sorting_names_sorts_their_models(names in proptest::collection::vec(labels(), 0..12)) {
        let mut built: Vec<Name> = names.iter().map(|l| build(l)).collect();
        let mut models: Vec<Model> = names.iter().map(|l| model(l)).collect();
        built.sort();
        models.sort();
        let back: Vec<Model> = built.iter().map(to_model).collect();
        prop_assert_eq!(back, models);
    }

    #[test]
    fn algebra_round_trips(a in labels(), b in labels(), extra in label()) {
        let (na, nb) = (build(&a), build(&b));
        let (ma, mb) = (model(&a), model(&b));

        // parent and ancestors walk the model's suffixes.
        prop_assert_eq!(na.parent().map(|p| to_model(&p)), (!ma.is_empty()).then(|| ma[1..].to_vec()));
        let chain: Vec<Model> = na.ancestors().map(|x| to_model(&x)).collect();
        let want: Vec<Model> = (0..=ma.len()).map(|i| ma[i..].to_vec()).collect();
        prop_assert_eq!(chain, want);

        // strip_suffix then concat is the identity for every ancestor.
        for (k, anc) in na.ancestors().enumerate() {
            let prefix = na.strip_suffix(&anc).unwrap();
            prop_assert_eq!(to_model(&prefix), ma[..k].to_vec());
            prop_assert_eq!(prefix.concat(&anc).unwrap(), na.clone());
        }

        // concat joins the models, or reports the length limit.
        let joined: Model = ma.iter().chain(mb.iter()).cloned().collect();
        match na.concat(&nb) {
            Ok(n) => {
                prop_assert_eq!(to_model(&n), joined.clone());
                prop_assert_eq!(n.strip_suffix(&nb).unwrap(), na.clone());
            }
            Err(e) => {
                prop_assert_eq!(e, cde_dns::NameError::NameTooLong);
                prop_assert!(model_wire_len(&joined) > cde_dns::name::MAX_NAME_LEN);
            }
        }
        if na.strip_suffix(&nb).is_some() {
            prop_assert!(na.is_subdomain_of(&nb));
        }

        // prepend_label puts the lowercased label in front.
        let mut with: Model = vec![extra.to_ascii_lowercase().into_bytes()];
        with.extend(ma.iter().cloned());
        match na.prepend_label(&extra) {
            Ok(child) => {
                prop_assert_eq!(to_model(&child), with);
                prop_assert_eq!(child.parent().unwrap(), na.clone());
                prop_assert!(child.is_strict_subdomain_of(&na));
            }
            Err(e) => {
                prop_assert_eq!(e, cde_dns::NameError::NameTooLong);
                prop_assert!(model_wire_len(&with) > cde_dns::name::MAX_NAME_LEN);
            }
        }
    }

    #[test]
    fn wire_round_trip_with_compression(a in labels(), b in labels(), c in labels()) {
        // b, then a, then a.b (when it fits) and c: the later names reuse
        // the earlier ones' suffixes through compression pointers.
        let (na, nb, nc) = (build(&a), build(&b), build(&c));
        let mut names = vec![nb.clone(), na.clone()];
        if let Ok(ab) = na.concat(&nb) {
            names.push(ab);
        }
        names.push(nc);
        names.push(na);
        let mut w = WireWriter::new();
        for n in &names {
            w.put_name(n);
        }
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        for n in &names {
            let back = r.read_name().unwrap();
            prop_assert_eq!(&back, n);
            prop_assert_eq!(hash_of(&back), hash_of(n));
        }
        prop_assert!(r.is_at_end());
    }
}
