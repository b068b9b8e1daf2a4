// Call-graph contract annotations, checked by cfsf_lint v4.
//
// The serving path's performance contracts live *between* functions: a
// request handler must never transitively reach a disk write or a
// sleep, and `/v1/rate` must never complete before the WAL's fsync
// barrier.  These macros make those contracts machine-readable the same
// way src/util/mutex.hpp makes lock contracts machine-readable — the
// linter builds a whole-repo call graph and walks it, so the contract
// is enforced on paths no test ever exercises.
//
//   CFSF_HOT_PATH   this function is a request-path root: no transitive
//                   callee may block (file I/O, fsync, sleeps, condvar
//                   or future waits) unless the path crosses a callee
//                   annotated CFSF_BLOCKING
//                   (lint rule `blocking-call-on-hot-path`).
//   CFSF_BLOCKING   this function is a *sanctioned* blocking boundary:
//                   callers accept that it may wait (the WAL append's
//                   fsync, ThreadPool's joins, a future's get).
//                   Annotate the public entry point only —
//                   internals reached any other way still count as
//                   violations.
//   CFSF_ACK_POINT  this function acks client-visible durability (the
//                   kOk/202 completion for Rate): its call graph must
//                   contain a CFSF_BLOCKING barrier that reaches fsync
//                   (lint rule `ack-before-durable`).
//
// Placement mirrors the TSA macros: after the parameter list, on the
// declaration —
//
//   Response Process(const Request& r, bool degraded) CFSF_HOT_PATH;
//   AppendAck Append(const Record& r, bool durable) CFSF_BLOCKING;
//
// Under Clang the macros expand to `annotate` attributes so the
// contract also survives into the AST for external tooling; everywhere
// else they expand to nothing and cost nothing.  cfsf_lint reads the
// macro *tokens*, so the checks run on every toolchain.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#define CFSF_ATTRS_HAS_ATTRIBUTE(x) __has_attribute(x)
#else
#define CFSF_ATTRS_HAS_ATTRIBUTE(x) 0
#endif

#if CFSF_ATTRS_HAS_ATTRIBUTE(annotate)
#define CFSF_CALL_ATTRIBUTE(tag) __attribute__((annotate(tag)))
#else
#define CFSF_CALL_ATTRIBUTE(tag)
#endif

/// Request-path root: nothing it reaches may block (see above).
#define CFSF_HOT_PATH CFSF_CALL_ATTRIBUTE("cfsf.hot_path")

/// Sanctioned blocking boundary: callers accept the wait.
#define CFSF_BLOCKING CFSF_CALL_ATTRIBUTE("cfsf.blocking")

/// Durability ack point: must be backed by a fsync-reaching barrier.
#define CFSF_ACK_POINT CFSF_CALL_ATTRIBUTE("cfsf.ack_point")
