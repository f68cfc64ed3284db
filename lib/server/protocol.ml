type error_code =
  | Bad_request
  | Unknown_algorithm
  | Unknown_session
  | Infeasible
  | Shutting_down
  | Internal

type solve_params = {
  algorithm : string;
  seed : int;
  timeout_ms : int option;
  cache : bool;
}

let default_solve_params =
  { algorithm = "combine"; seed = 42; timeout_ms = None; cache = true }

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
      cache : bool;
      path : Core.Path.t;
      tasks : Core.Task.t list;
    }
  | Stats of { id : int }
  | Ping of { id : int }
  | Shutdown of { id : int }
  | Session_open of {
      id : int;
      seed : int;
      path : Core.Path.t;
      tasks : Core.Task.t list;
    }
  | Session_add of { id : int; session : int; task : Core.Task.t }
  | Session_remove of { id : int; session : int; task_id : int }
  | Session_resolve of { id : int; session : int; cold : bool }
  | Session_close of { id : int; session : int }

type solve_summary = {
  scheduled : int;
  weight : float;
  cached : bool;
  time_ms : float;
}

type round_summary = { r_rounds : int; r_cached : bool; r_time_ms : float }

(* The sap-session v1 response payload: resolve accounting a client can
   assert on (and the CI smoke does) without scraping server stats. *)
type session_summary = {
  s_tasks : int;
  s_scheduled : int;
  s_weight : float;
  s_bands : int;
  s_repacked : int;
  s_reused : int;
  s_warm : int;
  s_time_ms : float;
}

type session_event = Sess_opened | Sess_ack | Sess_resolved | Sess_closed

type response =
  | Solved of { id : int; summary : solve_summary; solution : Core.Solution.sap }
  | Round_solved of {
      id : int;
      summary : round_summary;
      rounds : Core.Solution.sap list;
    }
  | Stats_reply of { id : int; stats : Obs.Json.t }
  | Ack of { id : int }
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

let request_id = function
  | Solve { id; _ }
  | Round_solve { id; _ }
  | Stats { id }
  | Ping { id }
  | Shutdown { id }
  | Session_open { id; _ }
  | Session_add { id; _ }
  | Session_remove { id; _ }
  | Session_resolve { id; _ }
  | Session_close { id; _ } ->
      id

let response_id = function
  | Solved { id; _ }
  | Round_solved { id; _ }
  | Stats_reply { id; _ }
  | Ack { id }
  | Failed { id; _ }
  | Timed_out { id }
  | Session_reply { id; _ } ->
      id

let session_event_to_string = function
  | Sess_opened -> "opened"
  | Sess_ack -> "ack"
  | Sess_resolved -> "resolved"
  | Sess_closed -> "closed"

let session_event_of_string = function
  | "opened" -> Some Sess_opened
  | "ack" -> Some Sess_ack
  | "resolved" -> Some Sess_resolved
  | "closed" -> Some Sess_closed
  | _ -> None

let error_code_to_string = function
  | Bad_request -> "bad-request"
  | Unknown_algorithm -> "unknown-algorithm"
  | Unknown_session -> "unknown-session"
  | Infeasible -> "infeasible"
  | Shutting_down -> "shutting-down"
  | Internal -> "internal"

let error_code_of_string = function
  | "bad-request" -> Some Bad_request
  | "unknown-algorithm" -> Some Unknown_algorithm
  | "unknown-session" -> Some Unknown_session
  | "infeasible" -> Some Infeasible
  | "shutting-down" -> Some Shutting_down
  | "internal" -> Some Internal
  | _ -> None

(* ---------- printing ---------- *)

let request_to_string req =
  let buf = Buffer.create 256 in
  (match req with
  | Solve { id; params; path; tasks } ->
      Buffer.add_string buf
        (Printf.sprintf "sap-request v1 %d solve algorithm=%s seed=%d" id
           params.algorithm params.seed);
      (match params.timeout_ms with
      | Some ms -> Buffer.add_string buf (Printf.sprintf " timeout-ms=%d" ms)
      | None -> ());
      if not params.cache then Buffer.add_string buf " cache=0";
      Buffer.add_char buf '\n';
      Buffer.add_string buf (Sap_io.Instance_io.instance_to_string path tasks)
  | Round_solve { id; algorithm; cache; path; tasks } ->
      Buffer.add_string buf
        (Printf.sprintf "sap-request v1 %d round-solve algorithm=%s" id algorithm);
      if not cache then Buffer.add_string buf " cache=0";
      Buffer.add_char buf '\n';
      Buffer.add_string buf
        (Sap_io.Instance_io.round_instance_to_string path tasks)
  | Stats { id } -> Buffer.add_string buf (Printf.sprintf "sap-request v1 %d stats\n" id)
  | Ping { id } -> Buffer.add_string buf (Printf.sprintf "sap-request v1 %d ping\n" id)
  | Shutdown { id } ->
      Buffer.add_string buf (Printf.sprintf "sap-request v1 %d shutdown\n" id)
  | Session_open { id; seed; path; tasks } ->
      Buffer.add_string buf
        (Printf.sprintf "sap-request v1 %d session-open seed=%d\n" id seed);
      Buffer.add_string buf (Sap_io.Instance_io.instance_to_string path tasks)
  | Session_add { id; session; task } ->
      Buffer.add_string buf
        (Printf.sprintf
           "sap-request v1 %d add-task session=%d task-id=%d first=%d last=%d \
            demand=%d weight=%.17g\n"
           id session task.Core.Task.id task.Core.Task.first_edge
           task.Core.Task.last_edge task.Core.Task.demand task.Core.Task.weight)
  | Session_remove { id; session; task_id } ->
      Buffer.add_string buf
        (Printf.sprintf "sap-request v1 %d remove-task session=%d task-id=%d\n"
           id session task_id)
  | Session_resolve { id; session; cold } ->
      Buffer.add_string buf
        (Printf.sprintf "sap-request v1 %d resolve session=%d%s\n" id session
           (if cold then " cold=1" else ""))
  | Session_close { id; session } ->
      Buffer.add_string buf
        (Printf.sprintf "sap-request v1 %d session-close session=%d\n" id
           session));
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let response_to_string resp =
  let buf = Buffer.create 256 in
  (match resp with
  | Solved { id; summary; solution } ->
      Buffer.add_string buf
        (Printf.sprintf "sap-response v1 %d solved scheduled=%d weight=%.17g cached=%d time-ms=%.17g\n"
           id summary.scheduled summary.weight
           (if summary.cached then 1 else 0)
           summary.time_ms);
      Buffer.add_string buf (Sap_io.Instance_io.solution_to_string solution)
  | Round_solved { id; summary; rounds } ->
      Buffer.add_string buf
        (Printf.sprintf
           "sap-response v1 %d round-solved rounds=%d cached=%d time-ms=%.17g\n"
           id summary.r_rounds
           (if summary.r_cached then 1 else 0)
           summary.r_time_ms);
      Buffer.add_string buf (Sap_io.Instance_io.round_solution_to_string rounds)
  | Stats_reply { id; stats } ->
      Buffer.add_string buf (Printf.sprintf "sap-response v1 %d stats\n" id);
      Buffer.add_string buf (Obs.Json.to_string stats);
      Buffer.add_char buf '\n'
  | Ack { id } -> Buffer.add_string buf (Printf.sprintf "sap-response v1 %d ok\n" id)
  | Failed { id; code; message } ->
      Buffer.add_string buf
        (Printf.sprintf "sap-response v1 %d error code=%s msg=%s\n" id
           (error_code_to_string code) (String.escaped message))
  | Timed_out { id } ->
      Buffer.add_string buf (Printf.sprintf "sap-response v1 %d timeout\n" id)
  | Session_reply { id; session; event; summary; solution } -> (
      Buffer.add_string buf
        (Printf.sprintf "sap-response v1 %d session session=%d event=%s" id
           session (session_event_to_string event));
      (match summary with
      | Some s ->
          Buffer.add_string buf
            (Printf.sprintf
               " tasks=%d scheduled=%d weight=%.17g bands=%d repacked=%d \
                reused=%d warm=%d time-ms=%.17g"
               s.s_tasks s.s_scheduled s.s_weight s.s_bands s.s_repacked
               s.s_reused s.s_warm s.s_time_ms)
      | None -> ());
      Buffer.add_char buf '\n';
      match event with
      | Sess_opened | Sess_resolved ->
          Buffer.add_string buf (Sap_io.Instance_io.solution_to_string solution)
      | Sess_ack | Sess_closed -> ()));
  Buffer.add_string buf "end\n";
  Buffer.contents buf

(* ---------- relabelling ---------- *)

(* The id is the header's third token.  It is spliced by byte span, not
   by splitting and re-joining tokens, because [msg=] takes the rest of
   an error header, spaces included. *)
let with_id frame id =
  let eol =
    match String.index_opt frame '\n' with
    | Some i -> i
    | None -> String.length frame
  in
  let rec tok i = if i < eol && frame.[i] <> ' ' then tok (i + 1) else i in
  let rec sp i = if i < eol && frame.[i] = ' ' then sp (i + 1) else i in
  let start = sp (tok (sp (tok (sp 0)))) in
  let stop = tok start in
  if stop = start then invalid_arg "Protocol.with_id: header has no id";
  String.concat ""
    [
      String.sub frame 0 start;
      string_of_int id;
      String.sub frame stop (String.length frame - stop);
    ]

(* ---------- parsing ---------- *)

let ( let* ) = Result.bind

(* Headers split into words and their fields parse as instance lines do,
   with the same error texts. *)
let tokens = Sap_io.Instance_io.words

let parse_int = Sap_io.Instance_io.parse_int

let parse_float = Sap_io.Instance_io.parse_float

(* [key=value] attribute tokens.  Unknown keys are an error: v1 has no
   extension story yet, and silently dropping a mistyped [timout-ms]
   would be a debugging trap. *)
let parse_attrs ~allowed toks =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | tok :: rest -> (
        match String.index_opt tok '=' with
        | None -> Error (Printf.sprintf "malformed attribute %S" tok)
        | Some i ->
            let k = String.sub tok 0 i in
            let v = String.sub tok (i + 1) (String.length tok - i - 1) in
            if List.mem k allowed then go ((k, v) :: acc) rest
            else Error (Printf.sprintf "unknown attribute %S" k))
  in
  go [] toks

let attr attrs k = List.assoc_opt k attrs

let require what = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing attribute %s" what)

let parse_attr_int attrs k =
  let* v = require k (attr attrs k) in
  parse_int k v

let parse_bool what s =
  match s with
  | "0" -> Ok false
  | "1" -> Ok true
  | _ -> Error (Printf.sprintf "expected 0/1 for %s, got %S" what s)

let no_body what = function
  | [] -> Ok ()
  | _ -> Error (Printf.sprintf "%s takes no body" what)

(* A request header parses to its id and the parser of its body, so an
   error in the body can be answered under the request's own id. *)
let request_header header =
  match tokens header with
  | "sap-request" :: "v1" :: id :: verb :: attr_toks ->
      let* id = parse_int "request id" id in
      let* () =
        if id < 0 then Error "request id must be non-negative" else Ok ()
      in
      let bare req body =
        let* () = no_body verb body in
        Ok req
      in
      let* parse_body =
        match verb with
        | "solve" ->
            let* attrs =
              parse_attrs ~allowed:[ "algorithm"; "seed"; "timeout-ms"; "cache" ]
                attr_toks
            in
            let d = default_solve_params in
            let algorithm =
              match attr attrs "algorithm" with Some a -> a | None -> d.algorithm
            in
            let* seed =
              match attr attrs "seed" with
              | Some s -> parse_int "seed" s
              | None -> Ok d.seed
            in
            let* timeout_ms =
              match attr attrs "timeout-ms" with
              | Some s ->
                  let* v = parse_int "timeout-ms" s in
                  if v < 0 then Error "timeout-ms must be non-negative"
                  else Ok (Some v)
              | None -> Ok None
            in
            let* cache =
              match attr attrs "cache" with
              | Some s -> parse_bool "cache" s
              | None -> Ok d.cache
            in
            Ok
              (fun body ->
                let* path, tasks = Sap_io.Instance_io.instance_of_lines body in
                Ok
                  (Solve
                     { id; params = { algorithm; seed; timeout_ms; cache }; path; tasks }))
        | "round-solve" ->
            let* attrs = parse_attrs ~allowed:[ "algorithm"; "cache" ] attr_toks in
            let algorithm =
              match attr attrs "algorithm" with Some a -> a | None -> "bands"
            in
            let* cache =
              match attr attrs "cache" with
              | Some s -> parse_bool "cache" s
              | None -> Ok true
            in
            Ok
              (fun body ->
                let* path, tasks = Sap_io.Instance_io.round_instance_of_lines body in
                Ok (Round_solve { id; algorithm; cache; path; tasks }))
        | "stats" -> Ok (bare (Stats { id }))
        | "ping" -> Ok (bare (Ping { id }))
        | "shutdown" -> Ok (bare (Shutdown { id }))
        | "session-open" ->
            let* attrs = parse_attrs ~allowed:[ "seed" ] attr_toks in
            let* seed =
              match attr attrs "seed" with
              | Some s -> parse_int "seed" s
              | None -> Ok default_solve_params.seed
            in
            Ok
              (fun body ->
                let* path, tasks = Sap_io.Instance_io.instance_of_lines body in
                Ok (Session_open { id; seed; path; tasks }))
        | "add-task" ->
            let* attrs =
              parse_attrs
                ~allowed:[ "session"; "task-id"; "first"; "last"; "demand"; "weight" ]
                attr_toks
            in
            let* session = parse_attr_int attrs "session" in
            let* task_id = parse_attr_int attrs "task-id" in
            let* first = parse_attr_int attrs "first" in
            let* last = parse_attr_int attrs "last" in
            let* demand = parse_attr_int attrs "demand" in
            let* demand = Sap_io.Instance_io.check_quantity "demand" demand in
            let* weight = require "weight" (attr attrs "weight") in
            let* weight = parse_float "weight" weight in
            let* task =
              match
                Core.Task.make ~id:task_id ~first_edge:first ~last_edge:last ~demand
                  ~weight
              with
              | t -> Ok t
              | exception Invalid_argument m -> Error ("invalid task: " ^ m)
            in
            Ok (bare (Session_add { id; session; task }))
        | "remove-task" ->
            let* attrs = parse_attrs ~allowed:[ "session"; "task-id" ] attr_toks in
            let* session = parse_attr_int attrs "session" in
            let* task_id = parse_attr_int attrs "task-id" in
            Ok (bare (Session_remove { id; session; task_id }))
        | "resolve" ->
            let* attrs = parse_attrs ~allowed:[ "session"; "cold" ] attr_toks in
            let* session = parse_attr_int attrs "session" in
            let* cold =
              match attr attrs "cold" with
              | Some s -> parse_bool "cold" s
              | None -> Ok false
            in
            Ok (bare (Session_resolve { id; session; cold }))
        | "session-close" ->
            let* attrs = parse_attrs ~allowed:[ "session" ] attr_toks in
            let* session = parse_attr_int attrs "session" in
            Ok (bare (Session_close { id; session }))
        | other -> Error (Printf.sprintf "unknown verb %S" other)
      in
      Ok (id, parse_body)
  | _ -> Error (Printf.sprintf "malformed request header %S" header)

let request_of_lines = function
  | [] -> Error (-1, "empty frame")
  | header :: body -> (
      match request_header header with
      | Error m -> Error (-1, m)
      | Ok (id, parse_body) -> Result.map_error (fun m -> (id, m)) (parse_body body))

(* The [msg=] attribute must be last and swallows the rest of the header
   line (escaped, so it stays on one line). *)
let split_msg line =
  let marker = " msg=" in
  let n = String.length line and m = String.length marker in
  let rec find i =
    if i + m > n then None
    else if String.sub line i m = marker then
      Some (String.sub line 0 i, String.sub line (i + m) (n - i - m))
    else find (i + 1)
  in
  find 0

(* A response header's id, status, attribute tokens and raw [msg=]
   text: the one parse of the header layout, shared by
   [response_header] and [response_of_lines]. *)
let response_header_parts header =
  let plain, msg =
    match split_msg header with
    | Some (before, raw) -> (before, Some raw)
    | None -> (header, None)
  in
  match tokens plain with
  | "sap-response" :: "v1" :: id :: status :: attr_toks ->
      let* id = parse_int "response id" id in
      Ok (id, status, attr_toks, msg)
  | _ -> Error (Printf.sprintf "malformed response header %S" header)

let response_header header =
  let* id, status, _, _ = response_header_parts header in
  Ok (id, status)

let response_of_lines ~tasks_for lines =
  match lines with
  | [] -> Error "empty frame"
  | header :: body -> (
      match response_header_parts header with
      | Error m -> Error m
      | Ok (id, status, attr_toks, msg) -> (
          match status with
          | "solved" ->
              let* attrs =
                parse_attrs
                  ~allowed:[ "scheduled"; "weight"; "cached"; "time-ms" ]
                  attr_toks
              in
              let req what = function
                | Some v -> Ok v
                | None -> Error (Printf.sprintf "missing attribute %s" what)
              in
              let* scheduled = req "scheduled" (attr attrs "scheduled") in
              let* scheduled = parse_int "scheduled" scheduled in
              let* weight = req "weight" (attr attrs "weight") in
              let* weight = parse_float "weight" weight in
              let* cached = req "cached" (attr attrs "cached") in
              let* cached = parse_bool "cached" cached in
              let* time_ms = req "time-ms" (attr attrs "time-ms") in
              let* time_ms = parse_float "time-ms" time_ms in
              let* tasks =
                match tasks_for id with
                | Some ts -> Ok ts
                | None -> Error (Printf.sprintf "no instance known for response id %d" id)
              in
              let* solution = Sap_io.Instance_io.solution_of_lines ~tasks body in
              Ok
                (Solved
                   { id; summary = { scheduled; weight; cached; time_ms }; solution })
          | "round-solved" ->
              let* attrs =
                parse_attrs ~allowed:[ "rounds"; "cached"; "time-ms" ] attr_toks
              in
              let* r_rounds = parse_attr_int attrs "rounds" in
              let* cached = require "cached" (attr attrs "cached") in
              let* r_cached = parse_bool "cached" cached in
              let* time_ms = require "time-ms" (attr attrs "time-ms") in
              let* r_time_ms = parse_float "time-ms" time_ms in
              let* tasks =
                match tasks_for id with
                | Some ts -> Ok ts
                | None ->
                    Error (Printf.sprintf "no instance known for response id %d" id)
              in
              let* rounds = Sap_io.Instance_io.round_solution_of_lines ~tasks body in
              let* () =
                if List.length rounds = r_rounds then Ok ()
                else
                  Error
                    (Printf.sprintf "round count mismatch: header %d, body %d"
                       r_rounds (List.length rounds))
              in
              Ok
                (Round_solved
                   { id; summary = { r_rounds; r_cached; r_time_ms }; rounds })
          | "stats" -> (
              match body with
              | [ json_line ] -> (
                  match Obs.Json.of_string json_line with
                  | Ok stats -> Ok (Stats_reply { id; stats })
                  | Error m -> Error ("stats body: " ^ m))
              | _ -> Error "stats response body must be one JSON line")
          | "session" -> (
              let* attrs =
                parse_attrs
                  ~allowed:
                    [
                      "session";
                      "event";
                      "tasks";
                      "scheduled";
                      "weight";
                      "bands";
                      "repacked";
                      "reused";
                      "warm";
                      "time-ms";
                    ]
                  attr_toks
              in
              let* session = parse_attr_int attrs "session" in
              let* event = require "event" (attr attrs "event") in
              let* event =
                match session_event_of_string event with
                | Some e -> Ok e
                | None -> Error (Printf.sprintf "unknown session event %S" event)
              in
              match event with
              | Sess_ack | Sess_closed ->
                  let* () = no_body "session ack" body in
                  Ok
                    (Session_reply
                       { id; session; event; summary = None; solution = [] })
              | Sess_opened | Sess_resolved ->
                  let* s_tasks = parse_attr_int attrs "tasks" in
                  let* s_scheduled = parse_attr_int attrs "scheduled" in
                  let* weight = require "weight" (attr attrs "weight") in
                  let* s_weight = parse_float "weight" weight in
                  let* s_bands = parse_attr_int attrs "bands" in
                  let* s_repacked = parse_attr_int attrs "repacked" in
                  let* s_reused = parse_attr_int attrs "reused" in
                  let* s_warm = parse_attr_int attrs "warm" in
                  let* time_ms = require "time-ms" (attr attrs "time-ms") in
                  let* s_time_ms = parse_float "time-ms" time_ms in
                  let* tasks =
                    match tasks_for id with
                    | Some ts -> Ok ts
                    | None ->
                        Error
                          (Printf.sprintf "no instance known for response id %d" id)
                  in
                  let* solution = Sap_io.Instance_io.solution_of_lines ~tasks body in
                  Ok
                    (Session_reply
                       {
                         id;
                         session;
                         event;
                         summary =
                           Some
                             {
                               s_tasks;
                               s_scheduled;
                               s_weight;
                               s_bands;
                               s_repacked;
                               s_reused;
                               s_warm;
                               s_time_ms;
                             };
                         solution;
                       }))
          | "ok" ->
              let* () = no_body "ok" body in
              Ok (Ack { id })
          | "timeout" ->
              let* () = no_body "timeout" body in
              Ok (Timed_out { id })
          | "error" -> (
              let* attrs = parse_attrs ~allowed:[ "code" ] attr_toks in
              let* () = no_body "error" body in
              let* code =
                match attr attrs "code" with
                | Some c -> (
                    match error_code_of_string c with
                    | Some c -> Ok c
                    | None -> Error (Printf.sprintf "unknown error code %S" c))
                | None -> Error "missing attribute code"
              in
              let* message =
                match msg with
                | None -> Error "missing attribute msg"
                | Some raw -> (
                    match Scanf.unescaped raw with
                    | s -> Ok s
                    | exception Scanf.Scan_failure _ ->
                        Error "undecodable msg escape")
              in
              Ok (Failed { id; code; message }))
          | other -> Error (Printf.sprintf "unknown status %S" other)))

let strip_terminator lines =
  match List.rev lines with
  | last :: rev_rest when String.trim last = "end" -> Ok (List.rev rev_rest)
  | _ -> Error "missing end terminator"

let request_of_string s =
  let lines = String.split_on_char '\n' s |> List.filter (( <> ) "") in
  let* lines = strip_terminator lines in
  Result.map_error snd (request_of_lines lines)

let response_of_string ~tasks_for s =
  let lines = String.split_on_char '\n' s |> List.filter (( <> ) "") in
  let* lines = strip_terminator lines in
  response_of_lines ~tasks_for lines

let read_frame ~read_line =
  let rec go acc =
    match read_line () with
    | None -> None
    | Some line ->
        if String.trim line = "end" then Some (List.rev acc)
        else go (line :: acc)
  in
  go []
