(** Versioned on-disk instance corpora for the ratio lab.

    A corpus is a directory holding one instance file per entry (the
    [sap-instance v1] / [ring-instance v1] carriers of
    {!Sap_io.Instance_io}) plus a [manifest.txt]:

    {v
    sap-corpus v1
    seed 42
    entry uniform-mixed-0.inst path uniform-mixed
    entry ring-uniform-0.inst ring ring-uniform
    ...
    v}

    Families mix the {!Gen} generator profiles with adversarial shapes:
    capacity staircases, demands pinned to the [delta * b] and
    [(1 - 2 beta) * b] classification boundaries, rings cut at their
    minimum-capacity edge, and a 40-task [bb-stress] family sized past
    {!Exact.Sap_brute.task_cap} that only {!Exact_bb} can certify.
    Generation is deterministic in the seed, so a committed manifest plus
    seed reproduces the corpus bit-for-bit. *)

val version : string
(** ["sap-corpus v1"]. *)

val manifest_file : string
(** ["manifest.txt"]. *)

type kind = Path_kind | Ring_kind | Round_kind

type entry = { file : string; kind : kind; family : string }

type t = { dir : string; seed : int; entries : entry list }

type instance =
  | Path_instance of Core.Path.t * Core.Task.t list
  | Ring_instance of Core.Ring.t
  | Round_instance of Round.Instance.t

val families : (string * kind) list
(** Every family the generator knows, with its instance kind. *)

val path_families : string list
(** The path-kind families, in [families] order — the task-mix profiles
    the load generator can draw from. *)

val round_families : string list
(** The ROUND-SAP families ([round-instance v1] carriers, kind [round]):
    uniform demands, power-of-two classes, just-over-half-capacity
    demands, staircase bottlenecks, and a tiny family sized under
    [Round.Exact.task_cap] for brute-force cross-checks.  Generators only
    emit tasks that fit alone — mandatory tasks that fit nowhere would
    make the instance unreadable ([Round.Instance.create] rejects it). *)

val sample_path :
  family:string -> prng:Util.Prng.t -> Core.Path.t * Core.Task.t list
(** Draw one in-memory instance from a path family (no disk involved;
    advances [prng], so repeated calls yield distinct instances).
    @raise Invalid_argument on an unknown or ring family. *)

val generate : dir:string -> seed:int -> ?variants:int -> unit -> t
(** [generate ~dir ~seed ()] creates the directory (and parents) if
    needed, writes [variants] (default 3) instances per family plus the
    manifest, and returns the corpus.  Per-family prng seeds depend on
    the family's position in {!families}, so appending families never
    changes the instances existing corpora were generated from. *)

val generate_round : dir:string -> seed:int -> ?variants:int -> unit -> t
(** [generate] restricted to the round families — what [sap_cli round
    lab gen] writes and the committed round corpus is built from. *)

(** {1 Churn traces}

    A churn trace is the input of an online-SAP session replay: one base
    instance plus a deterministic add/remove/resize event list, carried
    in the [sap-churn v1] text format:

    {v
    sap-churn v1
    seed 42
    steps 64
    capacities 4 4 8 8 16 16 32 32 64 64 128 128
    task 0 2 3 5 17.25
    ...
    event add 24 6 7 3 41.5
    event remove 7
    event resize 3 9
    v}

    [task] and [event add] lines share the instance-carrier field order
    (id, first edge, last edge, demand, weight).  A [resize] is replayed
    against a session as remove-then-add under the same id.  Generation
    is deterministic in the seed; the base path stacks two adjacent
    edges per capacity level (4..128), so the instance spans six
    bottleneck bands and a single-task event dirties exactly one. *)

val churn_version : string
(** ["sap-churn v1"]. *)

type churn_event =
  | Churn_add of Core.Task.t
  | Churn_remove of int  (** by task id *)
  | Churn_resize of int * int  (** task id, new demand *)

type churn = {
  churn_seed : int;
  churn_path : Core.Path.t;
  churn_base : Core.Task.t list;
  churn_events : churn_event list;
}

val generate_churn : seed:int -> steps:int -> churn
(** Deterministic in [seed]: a 24-task base instance and [steps] events
    (about half adds, the rest removes and resizes of live tasks).
    Fresh tasks get monotonically increasing ids, so an id is never
    reused after a remove.
    @raise Invalid_argument on negative [steps]. *)

val churn_to_string : churn -> string

val churn_of_string : string -> (churn, string) result
(** Rejects a header mismatch, malformed lines, tasks leaving the path,
    a base that repeats a task id, a capacity or demand above
    {!Sap_io.Instance_io.max_quantity}, and a [steps] count disagreeing
    with the event lines.  Task fields parse with
    {!Sap_io.Instance_io.task_of_fields}, as in every instance format. *)

val load : dir:string -> (t, string) result
(** Parse [dir]'s manifest (instance files are read lazily by {!read}). *)

val read : t -> entry -> (instance, string) result

val manifest_to_string : t -> string

val manifest_of_string : dir:string -> string -> (t, string) result

val kind_to_string : kind -> string
