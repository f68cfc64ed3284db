(** A thread-safe LRU solution cache.

    Keys are strings compared in full, never by a digest alone: the
    server keys on a request's canonical bytes ({!Fingerprint.make}), so
    a hit means the same content, and its values are packed placements
    ({!Fingerprint.placements}).  Capacity is a hard entry bound:
    inserting into a full cache evicts the least-recently-used entry.
    [find] counts as a use.

    All operations take an internal mutex, so pool workers can insert
    while the acceptor thread looks up.  Hit/miss/eviction totals are kept
    in cache-local atomics (always on, reported by the server's [stats]
    response) and mirrored into the [server.cache.{hits,misses,evictions}]
    {!Obs.Metrics} counters (live only while metric collection is
    enabled).  Each {!stats_json} scrape additionally derives
    [hits / (hits + misses)] and publishes it as the
    [server.cache.hit_ratio] gauge. *)

type 'v t

type stats = { hits : int; misses : int; evictions : int; entries : int; capacity : int }

val create : capacity:int -> 'v t
(** [capacity <= 0] disables caching: every [find] misses, [add] is a
    no-op. *)

val find : 'v t -> string -> 'v option
(** Lookup; a hit refreshes the entry's recency. *)

val add : 'v t -> string -> 'v -> unit
(** Insert or refresh; evicts the LRU entry when full. *)

val stats : 'v t -> stats

val stats_json : 'v t -> Obs.Json.t
(** [{"hits", "misses", "evictions", "hit_ratio", "entries",
    "capacity"}].  [hit_ratio] is [null] until the first lookup; when a
    ratio exists the scrape also refreshes the [server.cache.hit_ratio]
    gauge. *)
