(** A persistent domain worker pool with a bounded job queue.

    [Util.Parallel.map] spawns fresh domains per call, which is the right
    trade for one-shot experiment fan-out but wrong for a server: domain
    spawn costs dominate small solves and unbounded spawning has no
    admission control.  A pool spawns its workers once; jobs are closures
    pushed through a bounded FIFO:

    - {b backpressure} — [submit] blocks while the queue holds
      [queue_capacity] jobs, so a fast producer (the socket acceptor) is
      throttled to the solve rate instead of buffering without bound; the
      block propagates to the client through the kernel socket buffer.
    - {b graceful drain} — [shutdown] stops admission ([submit] raises
      {!Closed}), lets workers finish every job already accepted, and
      joins the domains.  No accepted job is dropped.
    - {b observability} — queue depth is observed into the
      [server.queue_depth] histogram at every submit; job counts land in
      [server.pool.{submitted,completed}].

    Futures are completed by the worker that ran the job; [await]-ing a
    failed job re-raises the job's exception in the awaiter. *)

type t

type 'a future

exception Closed
(** Raised by {!submit} after {!shutdown} has begun. *)

val create : ?workers:int -> ?queue_capacity:int -> unit -> t
(** Spawn the worker domains.  [workers] defaults to
    [Util.Parallel.default_jobs ()]; [queue_capacity] (default
    [4 * workers]) is the high-water mark past which [submit] blocks. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a job; blocks while the queue is at capacity.
    @raise Closed once {!shutdown} has begun. *)

val completed : 'a future -> bool
(** Non-blocking: has the job finished (successfully or not)? *)

val await : 'a future -> 'a
(** Block until the job finishes; re-raises its exception on failure. *)

val await_until : 'a future -> deadline:float -> 'a option
(** Block until the job finishes or {!Obs.Clock.monotonic_seconds}
    reaches [deadline]; [None] on deadline (the job keeps running — the
    pool has no preemption, callers discard the future).  Re-raises the
    job's exception if it failed before the deadline. *)

val shutdown : t -> unit
(** Graceful drain: reject new submissions, finish every accepted job,
    join the workers.  Idempotent. *)

type stats = {
  workers : int;
  queue_capacity : int;
  queue_depth : int;  (** jobs waiting (not yet picked up) right now *)
  submitted : int;
  completed : int;
  max_queue_depth : int;
}

val stats : t -> stats

val stats_json : t -> Obs.Json.t
