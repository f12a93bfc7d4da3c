//! The reference check: every served answer must equal what
//! `nanocost_serve::handle` answers for the same body on a fresh
//! in-process `ServerState`, with `req_id` removed. Runs after the timed
//! phase, so checking adds nothing to the measured time.

use std::collections::BTreeMap;

use nanocost_serve::{handle, Request, ServerState};

use crate::client::Sample;
use crate::gen::Spec;

/// An answer reduced to what must not depend on the server's history.
pub type Answer = (u16, Vec<u8>);

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Reduces a response body to what must not depend on the server's
/// history: drops the leading `"req_id":"…",` member and, in a batch
/// answer, the `hits`/`misses` of its `stats` object, which count the
/// request's own cache traffic and so depend on what came before it.
#[must_use]
pub fn normalize(body: &[u8]) -> Vec<u8> {
    const PREFIX: &[u8] = b"{\"req_id\":\"";
    let mut out = match body
        .strip_prefix(PREFIX)
        .and_then(|rest| Some((rest, find(rest, b"\",")?)))
    {
        Some((rest, end)) => [&b"{"[..], &rest[end + 2..]].concat(),
        None => body.to_vec(),
    };
    if let Some(stats) = find(&out, b",\"stats\":{") {
        if let Some(hits) = find(&out[stats..], b",\"hits\":") {
            let from = stats + hits;
            if let Some(close) = find(&out[from..], b"}") {
                out.drain(from..from + close);
            }
        }
    }
    out
}

/// A `POST` of `spec` as the server's parser would hand it to `handle`.
#[must_use]
pub fn post(spec: &Spec) -> Request {
    Request {
        method: "POST".into(),
        path: spec.path(),
        version: "HTTP/1.1".into(),
        headers: vec![],
        body: spec.body().into_bytes(),
    }
}

/// The reference answer for `spec`: a fresh state, one call.
#[must_use]
pub fn reference(spec: &Spec) -> Answer {
    let r = handle(&ServerState::new(), &post(spec));
    (r.status, normalize(&r.body))
}

/// Counts the samples whose answer is missing, non-2xx, or differs
/// from `reference(id)`. Each distinct id's reference is computed once;
/// ids are spread over `threads` threads.
pub fn count_failures(
    samples: &[Sample],
    threads: usize,
    reference: &(dyn Fn(usize) -> Answer + Sync),
) -> usize {
    let mut by_id: BTreeMap<usize, Vec<&Sample>> = BTreeMap::new();
    let mut failed = 0;
    for s in samples {
        if s.ok() {
            by_id.entry(s.id).or_default().push(s);
        } else {
            failed += 1;
        }
    }
    let groups: Vec<(usize, Vec<&Sample>)> = by_id.into_iter().collect();
    let chunk = groups.len().div_ceil(threads.max(1)).max(1);
    let mismatched: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut bad = 0;
                    for (id, group) in part {
                        let expected = reference(*id);
                        for s in group {
                            let got = s.exchange.as_ref().map(|e| (e.status, normalize(&e.body)));
                            if got.as_ref() != Some(&expected) {
                                bad += 1;
                            }
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread panicked"))
            .sum()
    });
    failed + mismatched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Exchange;
    use crate::gen::{Explore, Plan};

    fn served(plan: &Explore, seq: usize) -> Sample {
        let (id, spec) = plan.request(seq);
        let state = ServerState::new();
        // Advance the request counter so the req_id differs from the
        // reference's.
        for _ in 0..seq {
            let _ = state.next_request_id();
        }
        let r = handle(&state, &post(&spec));
        Sample {
            seq,
            id,
            endpoint: spec.endpoint(),
            points: spec.points(),
            request_bytes: 0,
            done_s: 0.0,
            exchange: Some(Exchange {
                status: r.status,
                body: r.body,
                total_ns: 1,
                phases: Default::default(),
            }),
        }
    }

    #[test]
    fn normalizes_only_history_dependent_members() {
        assert_eq!(
            normalize(b"{\"req_id\":\"r12\",\"total\":1}"),
            b"{\"total\":1}"
        );
        assert_eq!(normalize(b"{\"error\":\"x\"}"), b"{\"error\":\"x\"}");
        assert_eq!(
            normalize(b"{\"req_id\":\"r3\",\"results\":[{\"total\":1}],\"stats\":{\"requested\":2,\"unique\":1,\"hits\":2,\"misses\":0}}"),
            b"{\"results\":[{\"total\":1}],\"stats\":{\"requested\":2,\"unique\":1}}"
        );
    }

    #[test]
    fn correct_answers_pass_and_a_wrong_reference_fails() {
        let plan = Explore::new(3);
        let samples: Vec<Sample> = (0..40).map(|i| served(&plan, i)).collect();
        let good = |id: usize| reference(&plan.distinct[id]);
        assert_eq!(count_failures(&samples, 2, &good), 0);
        // Corrupt the reference of one id: every sample of it fails.
        let victim = samples[0].id;
        let expected = samples.iter().filter(|s| s.id == victim).count();
        let wrong = |id: usize| {
            let (status, mut body) = good(id);
            if id == victim {
                body.push(b' ');
            }
            (status, body)
        };
        assert_eq!(count_failures(&samples, 2, &wrong), expected);
    }

    #[test]
    fn transport_errors_and_non_2xx_fail() {
        let plan = Explore::new(3);
        let mut a = served(&plan, 0);
        a.exchange = None;
        let mut b = served(&plan, 1);
        if let Some(e) = b.exchange.as_mut() {
            e.status = 503;
        }
        let good = |id: usize| reference(&plan.distinct[id]);
        assert_eq!(count_failures(&[a, b], 1, &good), 2);
    }
}
