(* Consistent-hash router: ring properties, end-to-end fan-out over
   in-process shards, drain under load, the completion-flush regression
   (a quiet connection must still receive its tail), and a spawned shard
   killed mid-batch. *)

module Proto = Sap_server.Protocol
module Server = Sap_server.Server
module Transport = Sap_server.Transport
module Client = Sap_server.Client
module Router = Sap_server.Router
module Fingerprint = Sap_server.Fingerprint

let case name f = Alcotest.test_case name `Quick f
let default_params = Proto.default_solve_params

let solve_key path tasks =
  Fingerprint.solve_key ~problem:"sap"
    ~algorithm:default_params.Proto.algorithm ~seed:default_params.Proto.seed
    path tasks

let keys n = List.init n (fun i -> Printf.sprintf "key-%d" (i * 7919))

(* ---------- ring ---------- *)

let ring_stable_ownership () =
  let members = [ "a"; "b"; "c"; "d" ] in
  let r1 = Router.Ring.create members and r2 = Router.Ring.create members in
  Alcotest.(check (list string)) "members sorted" members (Router.Ring.members r1);
  List.iter
    (fun k ->
      Alcotest.(check (option string))
        ("owner stable for " ^ k)
        (Router.Ring.owner r1 k) (Router.Ring.owner r2 k))
    (keys 200);
  Alcotest.(check (option string))
    "empty ring owns nothing" None
    (Router.Ring.owner (Router.Ring.create []) "x")

let ring_add_steals_only_for_new () =
  let base = Router.Ring.create [ "a"; "b"; "c" ] in
  let grown = Router.Ring.add base "d" in
  let moved =
    List.filter
      (fun k -> Router.Ring.owner base k <> Router.Ring.owner grown k)
      (keys 400)
  in
  List.iter
    (fun k ->
      Alcotest.(check (option string))
        "moved key goes to the new member" (Some "d")
        (Router.Ring.owner grown k))
    moved;
  (* Expectation is 1/4 of the keyspace; allow generous slack. *)
  Alcotest.(check bool)
    "re-homed fraction bounded" true
    (List.length moved < 400 / 2)

let ring_remove_moves_only_from_removed () =
  let base = Router.Ring.create [ "a"; "b"; "c"; "d" ] in
  let shrunk = Router.Ring.remove base "b" in
  List.iter
    (fun k ->
      let before = Router.Ring.owner base k in
      let after = Router.Ring.owner shrunk k in
      if before <> Some "b" then
        Alcotest.(check (option string)) ("unmoved: " ^ k) before after
      else
        Alcotest.(check bool)
          ("re-homed off b: " ^ k)
          true
          (after <> Some "b" && after <> None))
    (keys 400)

let ring_rehoming_fraction_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"ring add re-homes ~1/n of keys" ~count:30
       QCheck.(pair (int_range 2 8) (int_range 0 1000))
       (fun (n, salt) ->
         let members = List.init n (Printf.sprintf "m%d") in
         let base = Router.Ring.create members in
         let grown = Router.Ring.add base "extra" in
         let ks =
           List.init 300 (fun i -> Printf.sprintf "s%d-%d" salt (i * 31))
         in
         let moved =
           List.filter
             (fun k -> Router.Ring.owner base k <> Router.Ring.owner grown k)
             ks
         in
         (* All moved keys belong to the new member, and the moved share
            stays within 3x the ideal 1/(n+1). *)
         List.for_all
           (fun k -> Router.Ring.owner grown k = Some "extra")
           moved
         && List.length moved * (n + 1) <= 3 * 300))

(* ---------- in-process fleet ---------- *)

type fleet = {
  fl_dir : string;
  fl_router : Router.t;
  fl_front : string;
  fl_stops : Transport.stopper list;
  fl_doms : unit Domain.t list;
  fl_servers : Server.t list;
}

let start_shard ~dir ~name =
  let socket_path = Filename.concat dir (name ^ ".sock") in
  let srv =
    Server.create
      ~config:{ Server.default_config with Server.workers = Some 2 } ()
  in
  let stop = Transport.stopper () in
  let bound = Atomic.make false in
  let dom =
    Domain.spawn (fun () ->
        Transport.serve_unix
          ~on_bound:(fun _ -> Atomic.set bound true)
          ~stop srv ~socket_path)
  in
  let rec wait n =
    if not (Atomic.get bound) then
      if n = 0 then Alcotest.fail (name ^ " never bound")
      else (Unix.sleepf 0.01; wait (n - 1))
  in
  wait 500;
  (socket_path, srv, stop, dom)

let temp_dir () =
  let dir = Filename.temp_file "sap_router" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  dir

let remove_dir dir =
  (try
     Sys.readdir dir |> Array.iter (fun f -> Sys.remove (Filename.concat dir f))
   with Sys_error _ -> ());
  try Sys.rmdir dir with Sys_error _ -> ()

(* Serve [router] on DIR/front.sock from a fresh domain, once bound. *)
let serve_front ~dir router =
  let front = Filename.concat dir "front.sock" in
  let stop = Transport.stopper () in
  let bound = Atomic.make false in
  let dom =
    Domain.spawn (fun () ->
        Router.serve
          ~on_bound:(fun _ -> Atomic.set bound true)
          ~stop router ~socket_path:front)
  in
  let rec wait n =
    if not (Atomic.get bound) then
      if n = 0 then Alcotest.fail "front never bound"
      else (Unix.sleepf 0.01; wait (n - 1))
  in
  wait 500;
  (front, stop, dom)

let start_fleet ?(shards = 3) () =
  let dir = temp_dir () in
  let started =
    List.init shards (fun i ->
        let name = Printf.sprintf "shard-%d" i in
        (name, start_shard ~dir ~name))
  in
  let endpoints =
    List.map
      (fun (name, (sock, _, _, _)) ->
        { Router.ep_name = name; ep_socket = sock; ep_spawn = None })
      started
  in
  let router =
    match Router.create endpoints with
    | Ok r -> r
    | Error m -> Alcotest.failf "router create: %s" m
  in
  let front, front_stop, front_dom = serve_front ~dir router in
  {
    fl_dir = dir;
    fl_router = router;
    fl_front = front;
    fl_stops = front_stop :: List.map (fun (_, (_, _, s, _)) -> s) started;
    fl_doms = front_dom :: List.map (fun (_, (_, _, _, d)) -> d) started;
    fl_servers = List.map (fun (_, (_, srv, _, _)) -> srv) started;
  }

let stop_fleet fl =
  Router.shutdown fl.fl_router;
  List.iter Transport.request_stop fl.fl_stops;
  List.iter Domain.join fl.fl_doms;
  List.iter Transport.close_stopper fl.fl_stops;
  List.iter Server.drain fl.fl_servers;
  remove_dir fl.fl_dir

let with_fleet ?shards f =
  let fl = start_fleet ?shards () in
  Fun.protect ~finally:(fun () -> stop_fleet fl) @@ fun () -> f fl

let batch_through_front ?(params = default_params) front instances =
  match Client.connect_unix front with
  | Error m -> Alcotest.failf "connect front: %s" m
  | Ok fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          Client.run_batch ~ic ~oc ~params instances)

let assert_all_solved instances (result : Client.batch_result) =
  Alcotest.(check (list string)) "no transport errors" []
    result.Client.transport_errors;
  Array.iteri
    (fun i resp ->
      let path, _ = List.nth instances i in
      match resp with
      | Some (Proto.Solved { solution; _ }) ->
          Helpers.assert_feasible_sap path solution
      | _ -> Alcotest.failf "instance %d: no solved response" i)
    result.Client.responses

let router_end_to_end () =
  with_fleet @@ fun fl ->
  let instances = List.init 12 (fun i -> Helpers.tiny_instance (500 + (13 * i))) in
  (* Every instance solved and feasible through the front socket. *)
  assert_all_solved instances (batch_through_front fl.fl_front instances);
  (* Keys spread across members, and owner_for is ring-consistent. *)
  let owners =
    List.map
      (fun (path, tasks) ->
        match Router.owner_for fl.fl_router ~key:(solve_key path tasks) with
        | Some o -> o
        | None -> Alcotest.fail "no owner")
      instances
  in
  Alcotest.(check bool)
    "at least two shards own keys" true
    (List.length (List.sort_uniq String.compare owners) >= 2);
  (* Affinity: a repeat of the same batch hits each owner's LRU cache.
     The hit counter is process-global, which is exactly the sum over
     the in-process shards. *)
  Obs.Metrics.enable ();
  let hits () = Obs.Metrics.counter_value (Obs.Metrics.counter "server.cache.hits") in
  let before = hits () in
  assert_all_solved instances (batch_through_front fl.fl_front instances);
  let after = hits () in
  Alcotest.(check bool)
    (Printf.sprintf "repeat batch is cached (%d -> %d)" before after)
    true
    (after - before >= List.length instances)

(* The pump regression: a client that pipelines one request and then
   goes quiet (no half-close, no further frames) must still receive the
   response as soon as it completes.  Before the per-connection pump,
   the reply sat in the session's FIFO until new inbound traffic. *)
let router_flushes_without_inbound () =
  with_fleet ~shards:2 @@ fun fl ->
  match Client.connect_unix fl.fl_front with
  | Error m -> Alcotest.failf "connect front: %s" m
  | Ok fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let oc = Unix.out_channel_of_descr fd in
          let path, tasks = Helpers.tiny_instance 4242 in
          output_string oc
            (Proto.request_to_string
               (Proto.Solve { id = 7; params = default_params; path; tasks }));
          flush oc;
          (* No half-close: wait on the bare socket for the reply. *)
          (match Unix.select [ fd ] [] [] 10.0 with
          | [], _, _ -> Alcotest.fail "no response within 10s (stranded tail)"
          | _ -> ());
          let ic = Unix.in_channel_of_descr fd in
          let read_line () =
            try Some (input_line ic) with End_of_file -> None
          in
          match Proto.read_frame ~read_line with
          | None -> Alcotest.fail "eof instead of response"
          | Some lines -> (
              let tasks_for id = if id = 7 then Some tasks else None in
              match Proto.response_of_lines ~tasks_for lines with
              | Ok (Proto.Solved { id; solution; _ }) ->
                  Alcotest.(check int) "id echoed" 7 id;
                  Helpers.assert_feasible_sap path solution
              | Ok _ -> Alcotest.fail "expected solved"
              | Error m -> Alcotest.failf "bad response: %s" m))

let drain_under_load_loses_nothing () =
  with_fleet @@ fun fl ->
  let instances = List.init 16 (fun i -> Helpers.tiny_instance (900 + (7 * i))) in
  (* Concurrent batches while a shard drains: every request answered. *)
  let worker =
    Domain.spawn (fun () ->
        List.init 3 (fun _ -> batch_through_front fl.fl_front instances))
  in
  Unix.sleepf 0.02;
  (match Router.drain_shard fl.fl_router "shard-1" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "drain: %s" m);
  let results = Domain.join worker in
  List.iter (assert_all_solved instances) results;
  (* The drained shard is out of the ring: no key re-homes onto it. *)
  List.iter
    (fun k ->
      match Router.owner_for fl.fl_router ~key:k with
      | Some "shard-1" -> Alcotest.fail "drained shard still owns keys"
      | _ -> ())
    (keys 100);
  (* And a fresh batch still fully succeeds on the survivors. *)
  assert_all_solved instances (batch_through_front fl.fl_front instances)

(* Every other verb family through the front socket on one connection:
   round-solve and session-open are forwarded by fingerprint, the
   session's follow-up verbs are pinned to the shard that opened it, and
   malformed frames and pings are answered by the router itself. *)
let router_serves_every_verb () =
  with_fleet ~shards:2 @@ fun fl ->
  match Client.connect_unix fl.fl_front with
  | Error m -> Alcotest.failf "connect front: %s" m
  | Ok fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let request ?(tasks = []) req =
        match Client.request ~ic ~oc ~tasks_for:(fun _ -> Some tasks) req with
        | Ok resp -> resp
        | Error m -> Alcotest.failf "request: %s" m
      in
      let unexpected what resp =
        Alcotest.failf "%s: unexpected %s" what (Proto.response_to_string resp)
      in
      (* round-solve: a checker-valid packing, then a cached repeat. *)
      let rpath = Core.Path.create [| 6; 6; 6 |] in
      let rtask ~id ~first ~last ~d =
        Core.Task.make ~id ~first_edge:first ~last_edge:last ~demand:d
          ~weight:1.0
      in
      let rtasks =
        [
          rtask ~id:0 ~first:0 ~last:1 ~d:4;
          rtask ~id:1 ~first:1 ~last:2 ~d:4;
          rtask ~id:2 ~first:0 ~last:2 ~d:3;
          rtask ~id:3 ~first:2 ~last:2 ~d:6;
        ]
      in
      let round_solve id =
        request ~tasks:rtasks
          (Proto.Round_solve
             {
               id;
               algorithm = "bands";
               cache = true;
               path = rpath;
               tasks = rtasks;
             })
      in
      (match round_solve 0 with
      | Proto.Round_solved { id = 0; summary; rounds } -> (
          Alcotest.(check bool) "fresh round-solve" false summary.Proto.r_cached;
          match
            Round.Checker.check (Round.Instance.create_exn rpath rtasks) rounds
          with
          | Ok () -> ()
          | Error m -> Alcotest.failf "round checker: %s" m)
      | resp -> unexpected "round-solve" resp);
      (match round_solve 1 with
      | Proto.Round_solved { id = 1; summary; _ } ->
          Alcotest.(check bool) "repeat round-solve cached" true
            summary.Proto.r_cached
      | resp -> unexpected "repeat round-solve" resp);
      (* A session, replies in order, every solution feasible. *)
      let path, tasks = Helpers.tiny_instance 77 in
      let extra =
        Core.Task.make ~id:5000 ~first_edge:0 ~last_edge:0 ~demand:1
          ~weight:3.0
      in
      let sid =
        match
          request ~tasks (Proto.Session_open { id = 2; seed = 3; path; tasks })
        with
        | Proto.Session_reply
            { id = 2; session; event = Proto.Sess_opened; solution; _ } ->
            Helpers.assert_feasible_sap path solution;
            session
        | resp -> unexpected "session-open" resp
      in
      (match request (Proto.Session_add { id = 3; session = sid; task = extra }) with
      | Proto.Session_reply { id = 3; session; event = Proto.Sess_ack; _ } ->
          Alcotest.(check int) "add-task pinned to the session" sid session
      | resp -> unexpected "add-task" resp);
      (match
         request ~tasks:(extra :: tasks)
           (Proto.Session_resolve { id = 4; session = sid; cold = false })
       with
      | Proto.Session_reply
          { id = 4; event = Proto.Sess_resolved; summary = Some s; solution; _ }
        ->
          Alcotest.(check int) "resolve sees the added task"
            (List.length tasks + 1) s.Proto.s_tasks;
          Helpers.assert_feasible_sap path solution
      | resp -> unexpected "resolve" resp);
      (match request (Proto.Session_close { id = 5; session = sid }) with
      | Proto.Session_reply { id = 5; event = Proto.Sess_closed; _ } -> ()
      | resp -> unexpected "session-close" resp);
      (match request (Proto.Session_resolve { id = 6; session = sid; cold = false }) with
      | Proto.Failed { id = 6; code = Proto.Unknown_session; _ } -> ()
      | resp -> unexpected "resolve after close" resp);
      (* A malformed frame is answered under id -1; the stream survives. *)
      output_string oc "sap-request v1 zero ping\nend\n";
      flush oc;
      let read_line () = try Some (input_line ic) with End_of_file -> None in
      (match Proto.read_frame ~read_line with
      | None -> Alcotest.fail "eof instead of a bad-request reply"
      | Some lines -> (
          match Proto.response_of_lines ~tasks_for:(fun _ -> None) lines with
          | Ok (Proto.Failed { id = -1; code = Proto.Bad_request; _ }) -> ()
          | Ok resp -> unexpected "malformed frame" resp
          | Error m -> Alcotest.failf "bad response: %s" m));
      match request (Proto.Ping { id = 7 }) with
      | Proto.Ack { id = 7 } -> ()
      | resp -> unexpected "ping" resp

(* A shard's error answer is relayed verbatim: the frame a client reads
   through the front equals, byte for byte, the one the shard sends a
   direct client under the same id.  The router relabels only the id,
   and a [msg=] holding spaces and quotes arrives intact. *)
let router_relays_errors_verbatim () =
  with_fleet ~shards:2 @@ fun fl ->
  let path, tasks = Helpers.tiny_instance 31 in
  let params = { default_params with Proto.algorithm = "nope" } in
  let req = Proto.Solve { id = 7; params; path; tasks } in
  let exchange socket =
    match Client.connect_unix socket with
    | Error m -> Alcotest.failf "connect %s: %s" socket m
    | Ok fd -> (
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        @@ fun () ->
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        output_string oc (Proto.request_to_string req);
        flush oc;
        let read_line () = try Some (input_line ic) with End_of_file -> None in
        match Proto.read_frame ~read_line with
        | None -> Alcotest.failf "%s: eof instead of a response" socket
        | Some lines -> lines)
  in
  let direct = exchange (Filename.concat fl.fl_dir "shard-0.sock") in
  let relayed = exchange fl.fl_front in
  Alcotest.(check (list string)) "the shard's frame, relayed" direct relayed;
  match Proto.response_of_lines ~tasks_for:(fun _ -> None) relayed with
  | Ok (Proto.Failed { id = 7; code = Proto.Unknown_algorithm; message }) ->
      Alcotest.(check bool)
        ("message intact: " ^ message)
        true
        (String.starts_with ~prefix:"unknown algorithm \"nope\" (have: " message)
  | Ok resp -> Alcotest.failf "unexpected %s" (Proto.response_to_string resp)
  | Error m -> Alcotest.failf "bad response: %s" m

(* ---------- a spawned shard killed mid-batch ---------- *)

(* `gen --profile valley --tasks 14` instances (12 edges, capacities 32
   down to 8).  The seeds are those in 1–300 whose exact solve took 5–20
   ms in one process on a 2-vCPU VM (1,426–8,147 search nodes); other
   seeds run up to 47 s. *)
let moderate_valley_seeds =
  [ 4; 11; 13; 28; 29; 35; 39; 44; 52; 55; 68; 71; 72; 73; 74; 77; 78; 79;
    83; 85; 95; 96; 99; 105; 115; 128; 131; 136; 145; 146; 150; 154; 155;
    157; 160; 165; 169; 171; 175; 178; 187; 192; 212; 214; 217; 224; 227;
    229; 230; 234; 235; 244; 245; 261; 265; 268; 270; 274; 275; 276; 279;
    281; 295; 298; 299 ]

let valley_instance seed =
  let prng = Util.Prng.create seed in
  let path = Gen.Profiles.valley ~edges:12 ~high:32 ~low:8 in
  (path, Gen.Workloads.mixed_tasks ~prng ~path ~n:14 ())

(* Two `sap_cli serve --workers 1` children behind the router; 32 exact
   solves, all owned by shard-1, are pipelined through the front and
   shard-1 is SIGKILLed 150 ms in.  Every request must still be solved
   (the orphans re-homed onto shard-0), the keeper must respawn shard-1
   and bring it back up, and a repeat batch must be solved too. *)
let killed_shard_rehomes_and_respawns () =
  if not (Sys.file_exists Helpers.cli) then Alcotest.skip ()
  else begin
    let dir = temp_dir () in
    let lines = ref [] and lines_lock = Mutex.create () in
    let log line = Mutex.protect lines_lock (fun () -> lines := line :: !lines) in
    let events () = Mutex.protect lines_lock (fun () -> List.rev !lines) in
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let spawn sock =
      Unix.create_process Helpers.cli
        [| Helpers.cli; "serve"; "--socket"; sock; "--workers"; "1"; "-q" |]
        null null null
    in
    let endpoints =
      List.init 2 (fun i ->
          let name = Printf.sprintf "shard-%d" i in
          {
            Router.ep_name = name;
            ep_socket = Filename.concat dir (name ^ ".sock");
            ep_spawn = Some spawn;
          })
    in
    let router =
      match
        Router.create ~config:{ Router.default_config with log = Some log } endpoints
      with
      | Ok r -> r
      | Error m -> Alcotest.failf "router create: %s" m
    in
    let front, stop, dom = serve_front ~dir router in
    Fun.protect
      ~finally:(fun () ->
        Router.shutdown router;
        Transport.request_stop stop;
        Domain.join dom;
        Transport.close_stopper stop;
        Unix.close null;
        remove_dir dir)
    @@ fun () ->
    (* The first log line whose event (the text after "ts=... ") starts
       with [prefix]: its index and the rest of the event. *)
    let find_from lines prefix =
      let rec go i = function
        | [] -> None
        | l :: rest -> (
            let event =
              match String.index_opt l ' ' with
              | Some sp -> String.sub l (sp + 1) (String.length l - sp - 1)
              | None -> l
            in
            let n = String.length prefix in
            if String.starts_with ~prefix event then
              Some (i, String.sub event n (String.length event - n))
            else go (i + 1) rest)
      in
      go 0 lines
    in
    let params = { default_params with Proto.algorithm = "exact" } in
    let owned_by_shard_1 (path, tasks) =
      let key =
        Fingerprint.solve_key ~problem:"sap" ~algorithm:"exact"
          ~seed:params.Proto.seed path tasks
      in
      Router.owner_for router ~key = Some "shard-1"
    in
    let instances =
      List.map valley_instance moderate_valley_seeds
      |> List.filter owned_by_shard_1
      |> List.filteri (fun i _ -> i < 32)
    in
    Alcotest.(check int) "32 instances owned by shard-1" 32 (List.length instances);
    let victim =
      match find_from (events ()) "event=shard-spawn shard=shard-1 pid=" with
      | Some (_, pid) -> int_of_string pid
      | None -> Alcotest.fail "no shard-spawn line for shard-1"
    in
    let batch = Domain.spawn (fun () -> batch_through_front ~params front instances) in
    Unix.sleepf 0.15;
    Unix.kill victim Sys.sigkill;
    assert_all_solved instances (Domain.join batch);
    (match find_from (events ()) "event=shard-down shard=shard-1 orphans=" with
    | Some (_, n) ->
        Alcotest.(check bool) ("orphans re-homed: " ^ n) true (int_of_string n >= 1)
    | None -> Alcotest.fail "no shard-down line for shard-1");
    (* A respawn, then a later shard-up: the keeper brought shard-1 back. *)
    let back_up () =
      let evs = events () in
      match find_from evs "event=shard-respawn shard=shard-1 pid=" with
      | None -> false
      | Some (i, _) ->
          find_from (List.filteri (fun j _ -> j > i) evs) "event=shard-up shard=shard-1"
          <> None
    in
    let rec wait n =
      if not (back_up ()) then
        if n = 0 then Alcotest.fail "shard-1 never came back up"
        else (Unix.sleepf 0.05; wait (n - 1))
    in
    wait 200;
    let shards =
      match Router.stats_json router with
      | Obs.Json.Obj fields -> (
          match List.assoc_opt "shards" fields with
          | Some (Obs.Json.List shards) ->
              List.filter_map (function Obs.Json.Obj sh -> Some sh | _ -> None) shards
          | _ -> [])
      | _ -> []
    in
    Alcotest.(check int) "both shards in stats" 2 (List.length shards);
    Alcotest.(check bool) "respawns >= 1" true
      (List.exists
         (fun sh ->
           match List.assoc_opt "respawns" sh with
           | Some (Obs.Json.Int n) -> n >= 1
           | _ -> false)
         shards);
    List.iter
      (fun sh ->
        Alcotest.(check bool) "shard up" true
          (List.assoc_opt "state" sh = Some (Obs.Json.String "up")))
      shards;
    assert_all_solved instances (batch_through_front ~params front instances)
  end

(* ---------- loadgen sweep knee ---------- *)

let knee_detection () =
  let knee pts = Lab.Loadgen.knee ~threshold:0.9 pts in
  Alcotest.(check (option (float 1e-9)))
    "knee at last keeping-up point" (Some 20.)
    (knee [ (10., 10.); (20., 19.5); (30., 21.) ]);
  Alcotest.(check (option (float 1e-9)))
    "all keep up: knee at the top" (Some 30.)
    (knee [ (10., 10.); (20., 20.); (30., 29.) ]);
  Alcotest.(check (option (float 1e-9)))
    "never keeps up: no knee" None
    (knee [ (10., 5.); (20., 4.) ])

let () =
  Alcotest.run "router"
    [
      ( "ring",
        [
          case "stable ownership" ring_stable_ownership;
          case "add steals only for the new member" ring_add_steals_only_for_new;
          case "remove moves only the removed member's keys"
            ring_remove_moves_only_from_removed;
          ring_rehoming_fraction_qcheck;
        ] );
      ( "routing",
        [
          case "end-to-end fan-out + cache affinity" router_end_to_end;
          case "response flushes without inbound traffic"
            router_flushes_without_inbound;
          case "drain under load loses nothing" drain_under_load_loses_nothing;
          case "round-solve, session, bad frame and ping through the front"
            router_serves_every_verb;
          case "a shard's error reaches the client verbatim"
            router_relays_errors_verbatim;
          case "a killed shard's solves are re-homed, and it respawns"
            killed_shard_rehomes_and_respawns;
        ] );
      ("sweep", [ case "knee detection" knee_detection ]);
    ]
