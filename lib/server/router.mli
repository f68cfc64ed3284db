(** Consistent-hash front router: one socket in, N shard processes out.

    The router speaks the same line-framed sap-request/v1 protocol as a
    single [serve] process, so clients (and [sap_cli loadgen]) need not
    know they are talking to a fleet.  Each [solve] request is hashed on
    its {!Fingerprint.solve_key} and forwarded to the owning shard over a
    per-shard pipelined Unix-socket connection — so repeat instances
    always land on the shard whose LRU cache already holds them (cache
    affinity is the scaling win, not just core count).  Responses are
    relayed back preserving per-client FIFO order, with only the header
    id rewritten; bodies pass through verbatim.

    Session verbs pin by sid: a [session-open] routes by instance
    fingerprint like a solve, and the sid the shard mints (globally
    unique — pid in the high bits) is pinned to that shard, so every
    follow-up [add-task]/[remove-task]/[resolve]/[session-close]
    carrying [session=SID] is forwarded to the owning shard.  Sessions
    are not re-homed: when the owning shard dies its pins are dropped
    and follow-up verbs answer [unknown-session] — the state died with
    the shard; the client re-opens.

    Shard lifecycle lives here.  Shards are either {e spawned} (the
    router forks a child per endpoint via [ep_spawn], shuts it down
    gracefully and reaps it) or {e external} (pre-started sockets the
    router connects to but never terminates).  Each shard has one
    {e keeper} domain for the router's whole life: it connects, relays
    the shard's replies until the connection dies, and then reconnects —
    respawning a spawned child whose process exited — under backoff
    doubling from 50 ms to 2 s.  A shard whose connection dies is removed
    from the hash ring and its in-flight requests are re-homed to
    surviving shards (solves are pure, so a retry is safe).  An accepted
    request is therefore answered exactly once: re-homed, or failed with
    an [error] response when no shard remains; never silently dropped.
    {!drain_shard} is the planned-maintenance variant: the shard leaves
    the ring, finishes its in-flight work, acknowledges a [shutdown]
    frame, and stays out.

    The [stats] verb answers with [sap-router-stats v1] (see
    docs/FORMAT.md): ring membership, totals, and per-shard state /
    respawn counts / latency summaries ({!Obs.Metrics.summary_json}),
    each Up shard's own [sap-server-stats] scrape embedded. *)

module Ring : sig
  (** Pure consistent-hash ring: [vnodes] virtual points per member at
      [hash (name ^ "#" ^ i)]; a key is owned by the first point
      clockwise from [hash key].  [hash] reads the key a word at a time
      and ends in murmur3's fmix64 finalizer.  Adding a member
      steals keys only {e for} the new member; removing one re-homes only
      the keys it owned — both in expectation [1/n] of the keyspace. *)

  type t

  val create : ?vnodes:int -> string list -> t
  (** Build a ring over distinct member names ([vnodes] defaults to 64;
      duplicates are collapsed). *)

  val vnodes : t -> int

  val members : t -> string list
  (** Sorted member names. *)

  val owner : t -> string -> string option
  (** Owning member for a key; [None] iff the ring is empty. *)

  val add : t -> string -> t
  val remove : t -> string -> t
end

type endpoint = {
  ep_name : string;  (** unique shard name (ring member) *)
  ep_socket : string;  (** Unix-socket path the shard serves on *)
  ep_spawn : (string -> int) option;
      (** [Some spawn]: the router owns the shard process — [spawn
          socket_path] starts it and returns its pid; the router respawns
          it on exit and shuts it down at the end.  [None]: external,
          reconnect-only. *)
}

type config = {
  vnodes : int;  (** virtual points per shard on the ring *)
  log : (string -> unit) option;  (** lifecycle event sink *)
}

val default_config : config
(** [vnodes = 64; log = None].  The lifecycle timings are constants: a
    5 s startup budget for every shard's first connection, attempts 50 ms
    apart; reconnect and respawn backoff doubling from 50 ms to 2 s; 5
    re-homing attempts per request before it is answered with [error]. *)

type t

val create : ?config:config -> endpoint list -> (t, string) result
(** Spawn (where applicable) every shard and start its keeper, then wait
    for every shard's first connection.  [Error] — with every spawned
    child cleaned up — if the endpoint list is empty, a name repeats, or
    some shard never accepts within the 5 s startup budget. *)

val serve :
  ?on_bound:(string -> unit) ->
  ?stop:Transport.stopper ->
  t ->
  socket_path:string ->
  unit
(** Accept clients on a front socket ({!Transport.serve_unix_sessions})
    until [request_stop] or a client [shutdown] frame.  Each client
    connection runs on {!Transport.serve_frames} (FIFO responses, bad
    frames answered under id [-1]); a [shutdown] frame drains the whole
    router.  Does {e not} call {!shutdown}; the caller decides when to
    tear the fleet down. *)

val drain_shard : t -> string -> (unit, string) result
(** Gracefully retire a shard by name: remove it from the ring (new keys
    re-home immediately), send it [shutdown] — it finishes every
    admitted request first — await the ack, and reap the child if
    spawned.  The shard stays out ([`Drained]); it is not respawned. *)

val owner_for : t -> key:string -> string option
(** Current ring owner for a raw key (what a [solve] with this
    fingerprint would hash to).  Exposed for benches and tests. *)

val stats_json : t -> Obs.Json.t
(** The [sap-router-stats v1] report. *)

val shutdown : t -> unit
(** Stop routing: mark the router draining, gracefully [shutdown] every
    spawned shard (await ack, reap), close external connections, and
    join every shard's keeper.  Idempotent. *)
