//! API-surface tests: probe, connected-set bookkeeping, compute,
//! unusual tags, self-sends and other edges of the public interface.

use bytes::Bytes;
use snow_core::Computation;
use snow_vm::HostSpec;
use std::time::Duration;

#[test]
fn probe_does_not_consume() {
    // Each input is the tag sequence rank 1 sends; the probed tag 7
    // comes last. A probe must neither consume its match nor move it
    // ahead of older messages from the same source.
    for tags in [vec![7], vec![6, 7]] {
        let comp = Computation::builder().hosts(HostSpec::ideal(), 2).build();
        let handles = comp.launch(2, move |mut p, _start| match p.rank() {
            0 => {
                // The sender must first get its connection granted
                // (which our probe's drain performs), then its data can
                // arrive — poll until the message shows up.
                let deadline = std::time::Instant::now() + Duration::from_secs(5);
                while !p.probe(Some(1), Some(7)).unwrap() {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "message never arrived"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
                assert!(p.probe(Some(1), Some(7)).unwrap(), "probe must not consume");
                assert!(!p.probe(Some(1), Some(99)).unwrap());
                for &want in &tags {
                    let (_s, t, b) = p.recv(Some(1), None).unwrap();
                    assert_eq!((t, &b[..]), (want, &b"x"[..]), "per-source FIFO");
                }
                assert!(!p.probe(Some(1), Some(7)).unwrap(), "recv consumed it");
                p.finish();
            }
            1 => {
                for &t in &tags {
                    p.send(0, t, Bytes::from_static(b"x")).unwrap();
                }
                p.finish();
            }
            _ => unreachable!(),
        });
        for h in handles {
            h.join().unwrap();
        }
    }
}

#[test]
fn connected_set_tracks_channels() {
    let comp = Computation::builder().hosts(HostSpec::ideal(), 3).build();
    let handles = comp.launch(3, move |mut p, _start| match p.rank() {
        0 => {
            assert!(p.connected().is_empty());
            p.send(1, 1, Bytes::from_static(b"a")).unwrap();
            assert_eq!(p.connected(), vec![1]);
            p.send(2, 1, Bytes::from_static(b"b")).unwrap();
            assert_eq!(p.connected(), vec![1, 2]);
            p.finish();
        }
        r => {
            let _ = p.recv(Some(0), Some(1)).unwrap();
            let _ = r;
            p.finish();
        }
    });
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn compute_advances_and_polls() {
    let comp = Computation::builder().hosts(HostSpec::ideal(), 1).build();
    let handles = comp.launch(1, move |mut p, _start| {
        // No signals pending: compute returns false.
        assert!(!p.compute(0.0).unwrap());
        assert!(!p.compute(0.001).unwrap());
        p.finish();
    });
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn negative_and_extreme_tags_are_application_visible() {
    // Tag -1 is also the internal marker tag; markers are distinguished
    // by payload kind, so applications may use any i32 tag.
    let comp = Computation::builder().hosts(HostSpec::ideal(), 2).build();
    let handles = comp.launch(2, move |mut p, _start| match p.rank() {
        0 => {
            for &tag in &[-1i32, i32::MIN, i32::MAX, 0] {
                let (_s, t, b) = p.recv(Some(1), Some(tag)).unwrap();
                assert_eq!(t, tag);
                assert_eq!(b.len(), 4);
            }
            p.finish();
        }
        1 => {
            for &tag in &[-1i32, i32::MIN, i32::MAX, 0] {
                p.send(0, tag, Bytes::from(vec![1, 2, 3, 4])).unwrap();
            }
            p.finish();
        }
        _ => unreachable!(),
    });
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn self_send_roundtrip() {
    // A process may send to its own rank; the message loops through its
    // own inbox and is received like any other.
    let comp = Computation::builder().hosts(HostSpec::ideal(), 1).build();
    let handles = comp.launch(1, move |mut p, _start| {
        p.send(0, 5, Bytes::from_static(b"to myself")).unwrap();
        let (src, tag, body) = p.recv(Some(0), Some(5)).unwrap();
        assert_eq!((src, tag, &body[..]), (0, 5, &b"to myself"[..]));
        p.finish();
    });
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn rml_len_reflects_buffering() {
    let comp = Computation::builder().hosts(HostSpec::ideal(), 2).build();
    let handles = comp.launch(2, move |mut p, _start| match p.rank() {
        0 => {
            // Receive tag 9 first: five tag-5 messages get buffered.
            let _ = p.recv(Some(1), Some(9)).unwrap();
            assert_eq!(p.rml_len(), 5);
            for i in 0u8..5 {
                let (_s, _t, b) = p.recv(Some(1), Some(5)).unwrap();
                assert_eq!(b[0], i);
            }
            assert_eq!(p.rml_len(), 0);
            p.finish();
        }
        1 => {
            for i in 0u8..5 {
                p.send(0, 5, Bytes::from(vec![i])).unwrap();
            }
            p.send(0, 9, Bytes::from_static(b"go")).unwrap();
            p.finish();
        }
        _ => unreachable!(),
    });
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn interleaved_tag_streams_stay_fifo_per_tag() {
    const N: u64 = 30;
    let comp = Computation::builder().hosts(HostSpec::ideal(), 2).build();
    let handles = comp.launch(2, move |mut p, _start| match p.rank() {
        0 => {
            // Drain tag 2 first, then tag 1 — both must be internally
            // ordered despite interleaved sends.
            for i in 0..N {
                let (_s, _t, b) = p.recv(Some(1), Some(2)).unwrap();
                assert_eq!(u64::from_be_bytes(b[..8].try_into().unwrap()), i);
            }
            for i in 0..N {
                let (_s, _t, b) = p.recv(Some(1), Some(1)).unwrap();
                assert_eq!(u64::from_be_bytes(b[..8].try_into().unwrap()), i);
            }
            p.finish();
        }
        1 => {
            for i in 0..N {
                p.send(0, 1, Bytes::copy_from_slice(&i.to_be_bytes()))
                    .unwrap();
                p.send(0, 2, Bytes::copy_from_slice(&i.to_be_bytes()))
                    .unwrap();
            }
            p.finish();
        }
        _ => unreachable!(),
    });
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn launch_placed_controls_hosts() {
    let comp = Computation::builder().hosts(HostSpec::ideal(), 3).build();
    let h1 = comp.hosts()[1];
    let h2 = comp.hosts()[2];
    let placement = vec![h2, h1];
    let handles = comp.launch_placed(&placement, move |p, _start| {
        match p.rank() {
            0 => assert_eq!(p.vmid().host, h2),
            1 => assert_eq!(p.vmid().host, h1),
            _ => unreachable!(),
        }
        p.finish();
    });
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn shutdown_stops_migration_service() {
    let comp = Computation::builder().hosts(HostSpec::ideal(), 2).build();
    let handles = comp.launch(1, |p, _start| {
        p.finish();
    });
    for h in handles {
        h.join().unwrap();
    }
    comp.shutdown();
    assert!(comp.migrate(0, comp.hosts()[1]).is_err());
}
