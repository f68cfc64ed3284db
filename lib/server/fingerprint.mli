(** Content-addressed solve keys, and the compact form of a cached
    result.

    Two solve requests are interchangeable exactly when they agree on the
    problem kind, the path capacities, the task multiset, the algorithm
    and the seed — task {e order} is presentation, not content.  The key
    ([sap-key v3]) is a canonical serialization of exactly that, in this
    order: the problem kind (["sap"] for [solve], ["round"] for
    [round-solve], so the two verbs never share an entry of the shared
    LRU), the algorithm name, the seed, the capacities in edge order,
    then the tasks in id order, each as its id, first edge, last edge,
    demand and weight.  Ids are unique per instance, so id order is
    canonical; the other fields only break ties, and a list already in
    id order is not sorted.  Integers are LEB128 varints, strings are
    length-prefixed, and a weight is the eight bytes of its
    [Int64.bits_of_float] — about 13 bytes per task.

    Every field is self-delimiting, so the key is injective: equal keys
    mean equal content, bit for bit.  The server's {!Cache} keys on these
    bytes and compares them in full, so a hit can never serve another
    instance's solution; the router hashes them onto its ring. *)

type t
(** A request's key, with its tasks in key order. *)

val make :
  problem:string ->
  algorithm:string ->
  seed:int ->
  Core.Path.t ->
  Core.Task.t list ->
  t

val key : t -> string
(** The canonical bytes. *)

val solve_key :
  problem:string ->
  algorithm:string ->
  seed:int ->
  Core.Path.t ->
  Core.Task.t list ->
  string
(** [key (make …)]: invariant under task reordering, sensitive to the
    problem kind, every capacity, every task field (weights to the last
    bit), the algorithm and the seed. *)

type placements
(** A result packed against the key's task order: per round, each
    placement in solver order as the task's index in that order and its
    height.  A [solve] result is one round.  Two ints per placement,
    where a {!Core.Solution.sap} holds a list cell, a pair and a task
    record. *)

val pack : t -> Core.Solution.sap list -> placements option
(** [None] when a placed task is not one of [t]'s (compared on
    content). *)

val unpack : t -> placements -> Core.Solution.sap list
(** The rounds rebuilt from [t]'s own tasks, placements in the order
    they were packed.  Given the [t] of a request whose key equals the
    packing request's, this is the packed result with the same
    placements, order and weights. *)
