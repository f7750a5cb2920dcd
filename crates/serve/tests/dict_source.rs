//! The one loader: [`DictSource::open`] hands back exactly the bytes
//! whose digest it checked, so an engine built from the source serves
//! the verified dictionary even if the artifact file is swapped after
//! the check — and a fresh open of the swapped file is refused.

mod common;

use common::*;
use efd_catalog::Catalog;
use efd_core::engine::Recognize;
use efd_serve::net::Engine;
use efd_serve::{Backend, DictSource};

#[test]
fn the_served_bytes_are_the_verified_bytes() {
    let dir = scratch_dir("dict-source");
    let cat_dir = dir.join("catalog");
    let dict_a = dict_with(&[("old", 5000.0), ("twin", 5000.0), ("solo", 6000.0)]);
    let dict_b = dict_with(&[("old", 5000.0), ("new", 7000.0)]);
    let file = Catalog::open(&cat_dir)
        .and_then(|mut cat| {
            let a = cat.publish_dictionary("apps", &dict_a, &catalog(), "a.efdb", 0, None)?;
            Ok(a.file.clone())
        })
        .expect("publish dictionary A");

    // One verified source per backend, all opened before the tamper.
    let sources: Vec<DictSource> = Backend::ALL
        .iter()
        .map(|_| DictSource::open("apps@latest", Some(&cat_dir)).expect("verified open"))
        .collect();
    assert_eq!(sources[0].version.as_deref(), Some("apps@v1"));
    assert_eq!(sources[0].shown, "apps@v1");

    // Overwrite the artifact with another valid EFDB (dictionary B).
    write_efdb(&cat_dir, &file, &dict_b);

    let probes = [
        [5000.0, 5000.0],
        [6000.0, 6000.0],
        [7000.0, 7000.0],
        [1.0, 1.0],
    ];
    assert_ne!(
        dict_a.recognize(&query(&probes[2])).normalized(),
        dict_b.recognize(&query(&probes[2])).normalized(),
        "the probes must tell A from B"
    );
    for (backend, src) in Backend::ALL.into_iter().zip(sources) {
        let engine = Engine::load(src, backend, &catalog()).expect("engine from the source");
        assert_eq!(engine.version.as_deref(), Some("apps@v1"));
        for means in &probes {
            let q = query(means);
            assert_eq!(
                engine.recognizer.recognize(&q).normalized(),
                dict_a.recognize(&q).normalized(),
                "{} over {means:?}",
                backend.name()
            );
        }
    }

    let err = DictSource::open("apps@latest", Some(&cat_dir))
        .err()
        .expect("a tampered artifact is refused");
    assert!(
        err.contains("digest") && err.contains("does not match index"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
