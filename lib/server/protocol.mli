(** The solve service's wire protocol (version 1).

    Newline-delimited frames over any byte stream (Unix-domain socket or
    stdio).  A frame is a header line, an optional body reusing the
    {!Sap_io.Instance_io} text formats, and a terminator line that is
    exactly [end]:

    {v
    sap-request v1 <id> solve algorithm=combine seed=42 timeout-ms=500
    sap-instance v1
    capacities 4 5 4
    task 0 0 1 2 1.5
    end
    v}

    Request verbs: [solve] (body: an instance), [round-solve] (body: a
    [round-instance v1] — the ROUND-SAP verb: pack {e all} tasks into
    minimum capacity rounds), [stats], [ping], [shutdown] (no body),
    plus the session family — [session-open] (body: the base instance),
    [add-task], [remove-task], [resolve], [session-close]
    (attribute-only).  Response statuses: [solved] (body: a solution),
    [round-solved] (body: a [round-solution v1]), [stats] (body: one
    line of compact JSON), [ok]
    (bare acknowledgement), [error], [timeout] (no body), and [session]
    — the sap-session v1 schema: [session=<sid> event=<opened|ack|
    resolved|closed>], with resolve accounting attributes and a solution
    body on [opened]/[resolved].  Ids are client-chosen non-negative
    integers echoed verbatim, so pipelined clients can match responses
    to requests; the server answers a frame whose header cannot be
    parsed with id [-1].  Session ids are server-assigned and globally
    unique across shards, so a router can pin follow-up session verbs to
    the shard that owns the session.

    Header attributes are [key=value] tokens; [msg=] (error responses
    only) must come last and swallows the rest of the line,
    [String.escaped]-encoded so messages stay newline-free.  Bodies never
    contain a bare [end] line (the Instance_io formats cannot produce
    one), which is what makes single-line framing sound.  The spec lives
    in docs/SERVER.md. *)

type error_code =
  | Bad_request  (** unparseable frame or malformed instance *)
  | Unknown_algorithm
  | Unknown_session
      (** session id not (or no longer) live on this server/shard *)
  | Infeasible  (** the solver returned a checker-rejected solution *)
  | Shutting_down  (** admission closed by graceful drain *)
  | Internal  (** solver raised *)

type solve_params = {
  algorithm : string;  (** default ["combine"] *)
  seed : int;  (** default [42] *)
  timeout_ms : int option;  (** [None]: no deadline *)
  cache : bool;  (** default [true]; [cache=0] bypasses lookup and insert *)
}

val default_solve_params : solve_params

type request =
  | Solve of {
      id : int;
      params : solve_params;
      path : Core.Path.t;
      tasks : Core.Task.t list;
    }
  | Round_solve of {
      id : int;
      algorithm : string;
          (** a {!Round.Solvers} registry name; default ["bands"] *)
      cache : bool;  (** default [true] *)
      path : Core.Path.t;
      tasks : Core.Task.t list;
    }
  | Stats of { id : int }
  | Ping of { id : int }
  | Shutdown of { id : int }
  | Session_open of {
      id : int;
      seed : int;  (** per-band rounding seed; default [42] *)
      path : Core.Path.t;
      tasks : Core.Task.t list;
    }
  | Session_add of { id : int; session : int; task : Core.Task.t }
  | Session_remove of { id : int; session : int; task_id : int }
  | Session_resolve of { id : int; session : int; cold : bool }
      (** [cold=1] repacks every band from scratch (the baseline a warm
          resolve is benchmarked against) *)
  | Session_close of { id : int; session : int }

type solve_summary = {
  scheduled : int;
  weight : float;
  cached : bool;
  time_ms : float;  (** solver wall time; [0] when served from cache *)
}

type round_summary = {
  r_rounds : int;
  r_cached : bool;
  r_time_ms : float;  (** solver wall time; [0] when served from cache *)
}

type session_summary = {
  s_tasks : int;  (** tasks currently in the session instance *)
  s_scheduled : int;
  s_weight : float;
  s_bands : int;
  s_repacked : int;  (** bands repacked by this resolve *)
  s_reused : int;  (** bands reused bit-identically *)
  s_warm : int;  (** repacked bands whose LP was seeded with a basis *)
  s_time_ms : float;
}

type session_event = Sess_opened | Sess_ack | Sess_resolved | Sess_closed

type response =
  | Solved of { id : int; summary : solve_summary; solution : Core.Solution.sap }
  | Round_solved of {
      id : int;
      summary : round_summary;
      rounds : Core.Solution.sap list;  (** body: [round-solution v1] *)
    }
  | Stats_reply of { id : int; stats : Obs.Json.t }
  | Ack of { id : int }  (** [ping] and [shutdown] acknowledgement *)
  | Failed of { id : int; code : error_code; message : string }
  | Timed_out of { id : int }
  | Session_reply of {
      id : int;
      session : int;
      event : session_event;
      summary : session_summary option;
          (** present exactly on [Sess_opened] / [Sess_resolved] *)
      solution : Core.Solution.sap;
          (** body; empty on [Sess_ack] / [Sess_closed] *)
    }

val request_id : request -> int

val response_id : response -> int

val session_event_to_string : session_event -> string
(** Wire names: [opened], [ack], [resolved], [closed]. *)

val session_event_of_string : string -> session_event option

val error_code_to_string : error_code -> string
(** Wire names: [bad-request], [unknown-algorithm], [infeasible],
    [shutting-down], [internal]. *)

val error_code_of_string : string -> error_code option

val request_to_string : request -> string
(** Full frame, terminator and trailing newline included. *)

val request_of_lines : string list -> (request, int * string) result
(** Parse a frame given as its lines {e without} the [end] terminator.
    The body is parsed from these lines as they are.  An error carries
    the id to answer it under: the request's own id when the header
    line parsed and the body was rejected, [-1] when the header itself
    did not parse. *)

val request_of_string : string -> (request, string) result
(** Parse a full frame (terminator required); {!request_of_lines}
    without the id. *)

val response_to_string : response -> string

val with_id : string -> int -> string
(** [with_id frame id] is [frame] with its header's id (the third
    token) replaced by [id].  Every other byte is kept, so a [msg=]
    text and the body pass through verbatim.  It works on request and
    response frames alike; the router relabels frames this way in both
    directions.
    @raise Invalid_argument if the header has fewer than three tokens. *)

val response_of_lines :
  tasks_for:(int -> Core.Task.t list option) ->
  string list ->
  (response, string) result
(** [tasks_for id] resolves a [solved] body's task ids against the
    instance the client sent under that request id. *)

val response_header : string -> (int * string, string) result
(** [(id, status)] of a response header line, by the header parse that
    {!response_of_lines} runs first.  The attributes are not checked
    and no body is needed. *)

val response_of_string :
  tasks_for:(int -> Core.Task.t list option) ->
  string ->
  (response, string) result

val read_frame : read_line:(unit -> string option) -> string list option
(** Pull lines from [read_line] until the [end] terminator; the returned
    lines exclude it.  [None] on end-of-stream (clean or mid-frame). *)
