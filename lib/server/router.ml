module P = Protocol

let now () = Obs.Clock.monotonic_seconds ()
let c_requests = Obs.Metrics.counter "router.requests"
let c_forwarded = Obs.Metrics.counter "router.forwarded"
let c_retries = Obs.Metrics.counter "router.retries"
let c_respawns = Obs.Metrics.counter "router.respawns"
let c_bad_upstream = Obs.Metrics.counter "router.bad_upstream_frames"
let c_connections = Obs.Metrics.counter "router.connections"

(* ---------- consistent-hash ring ---------- *)

module Ring = struct
  type t = {
    ring_vnodes : int;
    points : (int64 * string) array;  (* sorted by unsigned hash *)
    ring_members : string list;  (* sorted, distinct *)
  }

  (* A key is folded in a word at a time (8 bytes, a multiply–xorshift
     on a native int), then its tail bytes.  Vnode labels that differ
     only in the trailing index ("m0#17" vs "m0#18") must not land on
     near-adjacent points, or every member's vnodes clump into one arc
     and shard shares become wildly uneven; a murmur3 fmix64 finalizer
     spreads every input bit over the whole point. *)
  let mix64 h =
    let h = Int64.logxor h (Int64.shift_right_logical h 33) in
    let h = Int64.mul h 0xff51afd7ed558ccdL in
    let h = Int64.logxor h (Int64.shift_right_logical h 33) in
    let h = Int64.mul h 0xc4ceb9fe1a85ec53L in
    Int64.logxor h (Int64.shift_right_logical h 33)

  let hash s =
    let k = 0x2545F4914F6CDD1D in
    let n = String.length s in
    let h = ref n and i = ref 0 in
    while !i + 8 <= n do
      h := (!h lxor Int64.to_int (String.get_int64_le s !i)) * k;
      h := !h lxor (!h lsr 32);
      i := !i + 8
    done;
    while !i < n do
      h := (!h lxor Char.code s.[!i]) * k;
      incr i
    done;
    mix64 (Int64.of_int !h)

  let point name i = hash (name ^ "#" ^ string_of_int i)

  let create ?(vnodes = 64) names =
    let ring_members = List.sort_uniq String.compare names in
    let points =
      List.concat_map
        (fun n -> List.init vnodes (fun i -> (point n i, n)))
        ring_members
      |> Array.of_list
    in
    Array.sort
      (fun (a, an) (b, bn) ->
        let c = Int64.unsigned_compare a b in
        if c <> 0 then c else String.compare an bn)
      points;
    { ring_vnodes = vnodes; points; ring_members }

  let vnodes t = t.ring_vnodes
  let members t = t.ring_members

  let owner t key =
    let n = Array.length t.points in
    if n = 0 then None
    else begin
      let h = hash key in
      (* First point at or clockwise-after [h]; the array is sorted by
         unsigned hash, so that is a binary search with wraparound. *)
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Int64.unsigned_compare (fst t.points.(mid)) h < 0 then lo := mid + 1
        else hi := mid
      done;
      Some (snd t.points.(if !lo = n then 0 else !lo))
    end

  let add t name = create ~vnodes:t.ring_vnodes (name :: t.ring_members)

  let remove t name =
    create ~vnodes:t.ring_vnodes
      (List.filter (fun m -> not (String.equal m name)) t.ring_members)
end

(* ---------- configuration ---------- *)

type endpoint = {
  ep_name : string;
  ep_socket : string;
  ep_spawn : (string -> int) option;
}

type config = { vnodes : int; log : (string -> unit) option }

let default_config = { vnodes = 64; log = None }

(* [create] waits this many seconds for every shard's first connection;
   until then each keeper retries [backoff_min] seconds apart. *)
let startup_budget = 5.0

(* Reconnect/respawn backoff after a shard's first connection: starts at
   [backoff_min] seconds and doubles up to [backoff_max]. *)
let backoff_min = 0.05

let backoff_max = 2.0

(* Per-request re-homing attempts before answering [error]. *)
let retry_limit = 5

(* ---------- shards ---------- *)

(* An accepted request.  Its reply is completed exactly once, with the
   full response frame text (client id already in place); the client
   session blocks on it when the response reaches the head of its FIFO. *)
type entry = {
  e_key : string;  (** consistent-hash key; "" for direct sends *)
  e_req : P.request;  (** as the client sent it (client id) *)
  e_reply : string Pool.future;
  e_client_id : int;
  e_t0 : float;
  mutable e_attempts : int;
}

let entry ?(key = "") req reply =
  {
    e_key = key;
    e_req = req;
    e_reply = reply;
    e_client_id = P.request_id req;
    e_t0 = now ();
    e_attempts = 0;
  }

(* Solves are pure: re-home them on shard death.  Direct sends (stats,
   shutdown) and session verbs fail instead — retrying them elsewhere
   would answer a different question (session state is not
   re-homeable). *)
let is_solve e = match e.e_req with P.Solve _ | P.Round_solve _ -> true | _ -> false

type state = Up | Down | Draining | Drained

let state_name = function
  | Up -> "up"
  | Down -> "down"
  | Draining -> "draining"
  | Drained -> "drained"

(* One shard and its keeper.  The ring holds exactly the Up shards: every
   change of state to or from Up updates it under [sh_lock]. *)
type shard = {
  sh_name : string;
  sh_socket : string;
  sh_spawn : (string -> int) option;
  sh_lock : Mutex.t;
  sh_inflight : (int, entry) Hashtbl.t;  (* guarded by sh_lock *)
  sh_linked : unit Pool.future;  (* fulfilled by the first link *)
  mutable sh_keeper : unit Domain.t option;  (* set once by [create] *)
  mutable sh_pid : int option;
  mutable sh_state : state;
  mutable sh_link : (Unix.file_descr * out_channel) option;
      (* Some while Up or Draining; only the keeper closes the fd, after
         clearing this under sh_lock *)
  mutable sh_requests : int;  (* solves forwarded *)
  mutable sh_errors : int;  (* error/timeout responses relayed *)
  mutable sh_connects : int;
  mutable sh_respawns : int;
  mutable sh_latency : Obs.Metrics.histogram_summary;
}

type t = {
  cfg : config;
  shards : shard array;
  ring_lock : Mutex.t;
  mutable ring : Ring.t;  (* guarded by ring_lock; only Up shards *)
  stopping : bool Atomic.t;
  shut_done : bool Atomic.t;
  seq : int Atomic.t;  (* shard-side request ids, unique router-wide *)
  n_requests : int Atomic.t;
  n_errors : int Atomic.t;
  n_retried : int Atomic.t;
  started : float;
  sess_lock : Mutex.t;
  sess_owners : (int, string) Hashtbl.t;
      (* session id -> owning shard name; guarded by sess_lock.  Entries
         die with their shard (sessions are not re-homeable) or on
         session-close. *)
}

let logf t msg =
  match t.cfg.log with
  | None -> ()
  | Some f -> f (Printf.sprintf "ts=%.6f %s" (Obs.Clock.wall_seconds ()) msg)

let shard_by_name t name =
  Array.fold_left
    (fun acc sh -> if String.equal sh.sh_name name then Some sh else acc)
    None t.shards

let update_ring t f =
  Mutex.lock t.ring_lock;
  t.ring <- f t.ring;
  Mutex.unlock t.ring_lock

(* Shard responses are relayed as they arrived, relabelled by
   [P.with_id]: parsing a body would need the instance's tasks, and
   printing it again is pure waste. *)
let frame_text lines = String.concat "\n" lines ^ "\nend\n"

let fail_entry t entry code message =
  Atomic.incr t.n_errors;
  Pool.fulfil entry.e_reply
    (P.response_to_string (P.Failed { id = entry.e_client_id; code; message }))

(* Cut the link: its keeper reads EOF and runs the death path.  Call it
   only under [sh_lock], so [sh_link] still names the fd and no closed
   (and perhaps reused) fd number is shut down. *)
let kill_link sh =
  match sh.sh_link with
  | Some (fd, _) -> (
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
  | None -> ()

(* ---------- sending, dispatch, death ---------- *)

(* The one way a request reaches a shard: register [entry] in the
   shard's in-flight table under a fresh router-wide id and write the
   request with that id.  Forwards (a ring [e_key]) need the shard Up and
   count in its [requests]; direct sends are also allowed while it is
   Draining — [retire] marks it so before sending the shutdown frame.
   [None]: the shard is not in a state to take it; [Some false]: the
   write failed, the entry is unregistered and the link killed. *)
let send t sh entry =
  let forwarded = entry.e_key <> "" in
  Mutex.protect sh.sh_lock @@ fun () ->
  match (sh.sh_state, sh.sh_link) with
  | (Up | Draining), Some (_, oc) when sh.sh_state = Up || not forwarded ->
      let sid = Atomic.fetch_and_add t.seq 1 in
      Hashtbl.replace sh.sh_inflight sid entry;
      let wrote =
        try
          output_string oc (P.with_id (P.request_to_string entry.e_req) sid);
          flush oc;
          true
        with Sys_error _ -> false
      in
      if not wrote then begin
        Hashtbl.remove sh.sh_inflight sid;
        kill_link sh
      end
      else if forwarded then sh.sh_requests <- sh.sh_requests + 1;
      Some wrote
  | _ -> None

(* Send [req] straight to one shard (bypassing the ring) and complete
   [reply] with its answer. *)
let send_direct t sh req reply = send t sh (entry req reply) = Some true

let rec dispatch t entry =
  entry.e_attempts <- entry.e_attempts + 1;
  if entry.e_attempts > retry_limit then
    fail_entry t entry P.Internal "router: retry limit exceeded"
  else begin
    Mutex.lock t.ring_lock;
    let owner = Ring.owner t.ring entry.e_key in
    Mutex.unlock t.ring_lock;
    match owner with
    | None ->
        if Atomic.get t.stopping then
          fail_entry t entry P.Shutting_down "router draining"
        else fail_entry t entry P.Internal "router: no shard available"
    | Some name -> (
        match shard_by_name t name with
        | None -> fail_entry t entry P.Internal ("router: unknown shard " ^ name)
        | Some sh -> (
            match send t sh entry with
            | Some true -> ()
            | Some false ->
                Obs.Metrics.incr c_retries;
                Atomic.incr t.n_retried;
                dispatch t entry
            | None ->
                (* Raced with a death or drain, which has already taken
                   the shard off the ring: pick again.  [e_attempts]
                   bounds the loop. *)
                dispatch t entry))
  end

(* The death path, run by the keeper once per link after its EOF: clear
   the link, re-home orphaned solves (fail the rest) and drop the
   shard's session pins. *)
let link_dead t sh =
  Mutex.lock sh.sh_lock;
  sh.sh_link <- None;
  sh.sh_state <-
    (match sh.sh_state with
    | Draining | Drained -> Drained
    | Up | Down -> if Atomic.get t.stopping then Drained else Down);
  update_ring t (fun r -> Ring.remove r sh.sh_name);
  let orphans = Hashtbl.fold (fun _ e acc -> e :: acc) sh.sh_inflight [] in
  Hashtbl.reset sh.sh_inflight;
  let next = sh.sh_state in
  Mutex.unlock sh.sh_lock;
  (* Sessions die with their shard: drop the pins so follow-up verbs
     answer [unknown-session] instead of hanging on a dead owner. *)
  Mutex.protect t.sess_lock (fun () ->
      Hashtbl.filter_map_inplace
        (fun _ owner -> if String.equal owner sh.sh_name then None else Some owner)
        t.sess_owners);
  logf t
    (Printf.sprintf "event=shard-%s shard=%s orphans=%d" (state_name next)
       sh.sh_name (List.length orphans));
  List.iter
    (fun e ->
      if is_solve e then begin
        Obs.Metrics.incr c_retries;
        Atomic.incr t.n_retried;
        dispatch t e
      end
      else fail_entry t e P.Internal ("router: shard " ^ sh.sh_name ^ " lost"))
    orphans

(* Relay the shard's response frames to their entries until EOF. *)
let relay t sh ic =
  let read_line () =
    try Some (input_line ic) with End_of_file | Sys_error _ -> None
  in
  let rec loop () =
    match P.read_frame ~read_line with
    | None -> ()
    | Some [] -> loop ()
    | Some (header :: _ as lines) ->
        (match P.response_header header with
        | Error _ -> Obs.Metrics.incr c_bad_upstream
        | Ok (sid, status) -> (
            Mutex.lock sh.sh_lock;
            let entry = Hashtbl.find_opt sh.sh_inflight sid in
            if entry <> None then Hashtbl.remove sh.sh_inflight sid;
            Mutex.unlock sh.sh_lock;
            match entry with
            | None -> Obs.Metrics.incr c_bad_upstream
            | Some e ->
                (* A successful session-open names the new session; pin
                   it to this shard for follow-up verbs. *)
                (match e.e_req with
                | P.Session_open { tasks; _ } -> (
                    let tasks_for _ = Some tasks in
                    match P.response_of_lines ~tasks_for lines with
                    | Ok (P.Session_reply { session; event = P.Sess_opened; _ })
                      ->
                        Mutex.protect t.sess_lock (fun () ->
                            Hashtbl.replace t.sess_owners session sh.sh_name)
                    | _ -> ())
                | _ -> ());
                if is_solve e then begin
                  let dt = now () -. e.e_t0 in
                  Mutex.lock sh.sh_lock;
                  sh.sh_latency <- Obs.Metrics.summary_observe sh.sh_latency dt;
                  if String.equal status "error" || String.equal status "timeout"
                  then begin
                    sh.sh_errors <- sh.sh_errors + 1;
                    Atomic.incr t.n_errors
                  end;
                  Mutex.unlock sh.sh_lock
                end;
                Pool.fulfil e.e_reply
                  (P.with_id (frame_text lines) e.e_client_id)));
        loop ()
  in
  try loop () with _ -> ()

(* ---------- the keeper: one domain per shard ---------- *)

(* Make a fresh connection the shard's link — only while the router runs
   and the shard is Down.  A keeper that connects while its shard is
   being retired must not revive it: it closes the fd and exits, or
   [retire]'s join would wait on it. *)
let install t sh fd =
  Mutex.lock sh.sh_lock;
  let ok = (not (Atomic.get t.stopping)) && sh.sh_state = Down in
  if ok then begin
    sh.sh_link <- Some (fd, Unix.out_channel_of_descr fd);
    sh.sh_state <- Up;
    sh.sh_connects <- sh.sh_connects + 1;
    update_ring t (fun r -> Ring.add r sh.sh_name)
  end;
  Mutex.unlock sh.sh_lock;
  if ok then begin
    logf t (Printf.sprintf "event=shard-up shard=%s" sh.sh_name);
    Pool.fulfil sh.sh_linked ()
  end;
  ok

let respawn_if_exited t sh =
  match sh.sh_spawn with
  | None -> ()
  | Some spawn -> (
      let alive =
        match sh.sh_pid with
        | Some pid -> (
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ -> true
            | _ -> false
            | exception Unix.Unix_error _ -> false)
        | None -> false
      in
      if not alive then
        match spawn sh.sh_socket with
        | exception Unix.Unix_error _ -> ()
        | pid ->
            Mutex.protect sh.sh_lock (fun () ->
                sh.sh_pid <- Some pid;
                sh.sh_respawns <- sh.sh_respawns + 1);
            Obs.Metrics.incr c_respawns;
            logf t
              (Printf.sprintf "event=shard-respawn shard=%s pid=%d" sh.sh_name pid))

(* A shard's whole life, until the router stops or the shard is retired:
   connect, install the link, relay replies until EOF, run the death
   path, close the fd, and connect again.  Before the first link it
   retries every [backoff_min] seconds and never respawns; after it,
   each attempt first respawns a spawned child whose process has exited,
   and failures back off from [backoff_min] doubling to [backoff_max]. *)
let keeper t sh =
  let keeping () =
    (not (Atomic.get t.stopping))
    && Mutex.protect sh.sh_lock (fun () -> sh.sh_state = Down)
  in
  (* Sleep [d] seconds, cut short when the keeper is to stop. *)
  let pause d =
    let deadline = now () +. d in
    while keeping () && now () < deadline do
      Unix.sleepf (Float.min 0.05 (Float.max 0.001 (deadline -. now ())))
    done
  in
  let rec attempt ~linked delay =
    pause delay;
    if keeping () then begin
      if linked then respawn_if_exited t sh;
      match Client.connect_unix sh.sh_socket with
      | Error _ ->
          attempt ~linked
            (if linked then Float.min (delay *. 2.0) backoff_max else backoff_min)
      | Ok fd ->
          (* Respawned shard children must not inherit this connection: a
             leaked copy would keep the shard's session open after we
             close ours, hiding our EOF (and theirs from us). *)
          Unix.set_close_on_exec fd;
          let installed = install t sh fd in
          if installed then begin
            relay t sh (Unix.in_channel_of_descr fd);
            link_dead t sh
          end;
          Unix.close fd;
          if installed then attempt ~linked:true backoff_min
    end
  in
  attempt ~linked:false 0.0

(* ---------- lifecycle ---------- *)

let mk_shard ep =
  {
    sh_name = ep.ep_name;
    sh_socket = ep.ep_socket;
    sh_spawn = ep.ep_spawn;
    sh_lock = Mutex.create ();
    sh_inflight = Hashtbl.create 64;
    sh_linked = Pool.promise ();
    sh_keeper = None;
    sh_pid = None;
    sh_state = Down;
    sh_link = None;
    sh_requests = 0;
    sh_errors = 0;
    sh_connects = 0;
    sh_respawns = 0;
    sh_latency = Obs.Metrics.empty_summary;
  }

(* Take a shard out for good.  Up turns Draining (off the ring) and Down
   turns Drained, so the keeper stops after its current link.  Graceful
   (an Up shard only): the shard answers everything it admitted, acks a
   [shutdown] frame and exits.  Then the link is cut, the keeper joined
   (its death path logs [shard-drained]) and a spawned child reaped —
   terminated first unless it acked. *)
let retire t sh ~graceful =
  let was_up =
    Mutex.protect sh.sh_lock (fun () ->
        match sh.sh_state with
        | Up ->
            sh.sh_state <- Draining;
            update_ring t (fun r -> Ring.remove r sh.sh_name);
            true
        | Down ->
            sh.sh_state <- Drained;
            false
        | Draining | Drained -> false)
  in
  let acked =
    graceful && was_up
    &&
    let fut = Pool.promise () in
    send_direct t sh (P.Shutdown { id = 0 }) fut
    &&
    match P.response_of_string ~tasks_for:(fun _ -> None) (Pool.await fut) with
    | Ok (P.Ack _) -> true
    | _ -> false
  in
  Mutex.protect sh.sh_lock (fun () -> kill_link sh);
  Option.iter (fun d -> try Domain.join d with _ -> ()) sh.sh_keeper;
  match sh.sh_pid with
  | None -> ()
  | Some pid ->
      if not acked then (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      Mutex.protect sh.sh_lock (fun () -> sh.sh_pid <- None)

let shutdown t =
  Atomic.set t.stopping true;
  if Atomic.compare_and_set t.shut_done false true then begin
    logf t "event=router-shutdown";
    Array.iter
      (fun sh ->
        retire t sh ~graceful:(sh.sh_spawn <> None);
        logf t (Printf.sprintf "event=shard-retired shard=%s" sh.sh_name))
      t.shards
  end

let create ?(config = default_config) endpoints =
  let names = List.map (fun e -> e.ep_name) endpoints in
  if endpoints = [] then Error "router: no shard endpoints"
  else if List.length (List.sort_uniq String.compare names) <> List.length names
  then Error "router: duplicate shard names"
  else begin
    let t =
      {
        cfg = config;
        shards = Array.of_list (List.map mk_shard endpoints);
        ring_lock = Mutex.create ();
        ring = Ring.create ~vnodes:config.vnodes [];
        stopping = Atomic.make false;
        shut_done = Atomic.make false;
        seq = Atomic.make 0;
        n_requests = Atomic.make 0;
        n_errors = Atomic.make 0;
        n_retried = Atomic.make 0;
        started = now ();
        sess_lock = Mutex.create ();
        sess_owners = Hashtbl.create 16;
      }
    in
    Array.iter
      (fun sh ->
        Option.iter
          (fun spawn ->
            let pid = spawn sh.sh_socket in
            sh.sh_pid <- Some pid;
            logf t
              (Printf.sprintf "event=shard-spawn shard=%s pid=%d" sh.sh_name pid))
          sh.sh_spawn)
      t.shards;
    Array.iter
      (fun sh -> sh.sh_keeper <- Some (Domain.spawn (fun () -> keeper t sh)))
      t.shards;
    let deadline = now () +. startup_budget in
    let missing =
      Array.to_list t.shards
      |> List.filter (fun sh -> Pool.await_until sh.sh_linked ~deadline = None)
    in
    if missing = [] then Ok t
    else begin
      shutdown t;
      Error
        (Printf.sprintf "router: could not reach shard(s): %s"
           (String.concat ", " (List.map (fun sh -> sh.sh_name) missing)))
    end
  end

let drain_shard t name =
  match shard_by_name t name with
  | None -> Error ("router: unknown shard " ^ name)
  | Some sh ->
      if Mutex.protect sh.sh_lock (fun () -> sh.sh_state <> Up) then
        Error ("router: shard " ^ name ^ " is not up")
      else begin
        logf t (Printf.sprintf "event=shard-drain shard=%s" name);
        retire t sh ~graceful:true;
        Ok ()
      end

(* ---------- stats ---------- *)

(* One shard's own [sap-server-stats] report, fetched over the live
   connection (the shard answers after everything admitted before the
   scrape, FIFO — same semantics as scraping a single serve process). *)
let scrape_shard t sh =
  let fut = Pool.promise () in
  if not (send_direct t sh (P.Stats { id = 0 }) fut) then Obs.Json.Null
  else
    let tasks_for _ = None in
    match P.response_of_string ~tasks_for (Pool.await fut) with
    | Ok (P.Stats_reply { stats; _ }) -> stats
    | _ -> Obs.Json.Null

let stats_json t =
  let open Obs.Json in
  Mutex.lock t.ring_lock;
  let members = Ring.members t.ring and vn = Ring.vnodes t.ring in
  Mutex.unlock t.ring_lock;
  let shards =
    Array.to_list t.shards
    |> List.map (fun sh ->
           Mutex.lock sh.sh_lock;
           let state = sh.sh_state
           and pid = sh.sh_pid
           and requests = sh.sh_requests
           and errors = sh.sh_errors
           and connects = sh.sh_connects
           and respawns = sh.sh_respawns
           and inflight = Hashtbl.length sh.sh_inflight
           and latency = sh.sh_latency in
           Mutex.unlock sh.sh_lock;
           let server_stats =
             if state = Up then scrape_shard t sh else Null
           in
           Obj
             [
               ("name", String sh.sh_name);
               ("socket", String sh.sh_socket);
               ("pid", match pid with Some p -> Int p | None -> Null);
               ("state", String (state_name state));
               ("connects", Int connects);
               ("respawns", Int respawns);
               ("requests", Int requests);
               ("errors", Int errors);
               ("inflight", Int inflight);
               ("latency_seconds", Obs.Metrics.summary_json latency);
               ("server_stats", server_stats);
             ])
  in
  Obj
    [
      ("schema", String "sap-router-stats v1");
      ("uptime_seconds", Float (now () -. t.started));
      ("draining", Bool (Atomic.get t.stopping));
      ("requests", Int (Atomic.get t.n_requests));
      ("errors", Int (Atomic.get t.n_errors));
      ("retried", Int (Atomic.get t.n_retried));
      ( "sessions",
        Int (Mutex.protect t.sess_lock (fun () -> Hashtbl.length t.sess_owners))
      );
      ( "ring",
        Obj
          [
            ("vnodes", Int vn);
            ("members", List (Stdlib.List.map (fun m -> String m) members));
          ] );
      ("shards", List shards);
    ]

let owner_for t ~key =
  Mutex.lock t.ring_lock;
  let o = Ring.owner t.ring key in
  Mutex.unlock t.ring_lock;
  o

(* ---------- client sessions ---------- *)

(* The router's handler on {!Transport.serve_frames}, which owns the
   frame loop, the bad-frame reply and the response pump. *)
let handle_session t ic oc =
  Obs.Metrics.incr c_connections;
  Transport.serve_frames ic oc @@ fun req ->
  Obs.Metrics.incr c_requests;
  Atomic.incr t.n_requests;
  let id = P.request_id req in
  let reply resp () = P.response_to_string resp in
  (* [solve] and [round-solve] hash on their cache fingerprint, so a
     repeat lands on the shard whose LRU already holds it (the problem
     kind in the key keeps the two verbs' populations disjoint there
     too); [session-open] hashes its base instance like a solve would,
     and the session lives on (is pinned to) the owning shard. *)
  let forward ~problem ~algorithm ~seed path tasks =
    if Atomic.get t.stopping then
      reply (P.Failed { id; code = P.Shutting_down; message = "router draining" })
    else begin
      let key = Fingerprint.solve_key ~problem ~algorithm ~seed path tasks in
      let fut = Pool.promise () in
      Obs.Metrics.incr c_forwarded;
      dispatch t (entry ~key req fut);
      fun () -> Pool.await fut
    end
  in
  match req with
  | P.Solve { params; path; tasks; _ } ->
      forward ~problem:"sap" ~algorithm:params.P.algorithm ~seed:params.P.seed
        path tasks
  | P.Round_solve { algorithm; path; tasks; _ } ->
      forward ~problem:"round" ~algorithm ~seed:0 path tasks
  | P.Session_open { seed; path; tasks; _ } ->
      forward ~problem:"sap" ~algorithm:"session-open" ~seed path tasks
  | P.Session_add { session = sid; _ }
  | P.Session_remove { session = sid; _ }
  | P.Session_resolve { session = sid; _ }
  | P.Session_close { session = sid; _ } -> (
      let owner =
        Mutex.protect t.sess_lock (fun () -> Hashtbl.find_opt t.sess_owners sid)
      in
      let unknown message =
        reply (P.Failed { id; code = P.Unknown_session; message })
      in
      match Option.bind owner (shard_by_name t) with
      | None -> unknown (Printf.sprintf "router: unknown session %d" sid)
      | Some sh ->
          let fut = Pool.promise () in
          if send_direct t sh req fut then fun () ->
            let text = Pool.await fut in
            (match req with
            | P.Session_close _ ->
                Mutex.protect t.sess_lock (fun () ->
                    Hashtbl.remove t.sess_owners sid)
            | _ -> ());
            text
          else
            unknown
              (Printf.sprintf "router: session %d owner %s unavailable" sid
                 sh.sh_name))
  | P.Ping _ -> reply (P.Ack { id })
  | P.Stats _ ->
      fun () -> P.response_to_string (P.Stats_reply { id; stats = stats_json t })
  | P.Shutdown _ ->
      fun () ->
        shutdown t;
        P.response_to_string (P.Ack { id })

let serve ?on_bound ?stop t ~socket_path =
  Transport.serve_unix_sessions ?on_bound ?stop
    ~draining:(fun () -> Atomic.get t.stopping)
    (fun ic oc -> handle_session t ic oc)
    ~socket_path
