module Task = Core.Task
module Path = Core.Path
module Ring = Core.Ring
module Prng = Util.Prng
module Io = Sap_io.Instance_io

let version = "sap-corpus v1"

let manifest_file = "manifest.txt"

type kind = Path_kind | Ring_kind | Round_kind

type entry = { file : string; kind : kind; family : string }

type t = { dir : string; seed : int; entries : entry list }

type instance =
  | Path_instance of Path.t * Task.t list
  | Ring_instance of Ring.t
  | Round_instance of Round.Instance.t

let kind_to_string = function
  | Path_kind -> "path"
  | Ring_kind -> "ring"
  | Round_kind -> "round"

let kind_of_string = function
  | "path" -> Ok Path_kind
  | "ring" -> Ok Ring_kind
  | "round" -> Ok Round_kind
  | s -> Error (Printf.sprintf "unknown instance kind %S" s)

(* ---------- the families ---------- *)

(* Thresholds come from the algorithm defaults so the boundary families
   keep straddling the real classification lines if the defaults move. *)
let delta = Sap.Combine.default_config.Sap.Combine.delta

let beta = Sap.Combine.default_config.Sap.Combine.beta

let boundary_tasks prng ~edges ~low_demand ~n =
  List.init n (fun i ->
      let first_edge, last_edge = Gen.Workloads.random_span ~prng ~edges ~max_span:edges in
      (* Alternate demands just below and just above the threshold. *)
      let demand = if i mod 2 = 0 then low_demand else low_demand + 1 in
      let weight = 1.0 +. Prng.float prng 99.0 in
      Task.make ~id:i ~first_edge ~last_edge ~demand ~weight)

let min_capacity_edge caps =
  let best = ref 0 in
  Array.iteri (fun e c -> if c < caps.(!best) then best := e) caps;
  !best

let gen_path family prng =
  match family with
  | "uniform-mixed" ->
      let path =
        Gen.Profiles.uniform ~edges:(Prng.int_in prng 5 8)
          ~capacity:(Prng.int_in prng 8 14)
      in
      (path, Gen.Workloads.mixed_tasks ~prng ~path ~n:(Prng.int_in prng 7 9) ())
  | "staircase-mixed" ->
      let path = Gen.Profiles.staircase ~edges:8 ~steps:3 ~base:(Prng.int_in prng 3 5) in
      (path, Gen.Workloads.mixed_tasks ~prng ~path ~n:8 ())
  | "valley-small" ->
      let path =
        Gen.Profiles.valley ~edges:7 ~high:(Prng.int_in prng 14 20)
          ~low:(Prng.int_in prng 5 8)
      in
      (path, Gen.Workloads.small_tasks ~prng ~path ~n:9 ~delta ())
  | "uniform-medium" ->
      let path = Gen.Profiles.uniform ~edges:6 ~capacity:(Prng.int_in prng 10 16) in
      ( path,
        Gen.Workloads.ratio_tasks ~prng ~path ~n:8 ~lo:(delta +. 0.01)
          ~hi:(1.0 -. (2.0 *. beta)) () )
  | "walk-large" ->
      let path =
        Gen.Profiles.random_walk ~prng ~edges:7 ~start:(Prng.int_in prng 8 14)
          ~max_step:3 ~min_cap:4
      in
      ( path,
        Gen.Workloads.ratio_tasks ~prng ~path ~n:8
          ~lo:(1.0 -. (2.0 *. beta) +. 0.01)
          ~hi:1.0 () )
  | "delta-boundary" ->
      (* Uniform capacity 12: [delta * b = 3] exactly, so demands 3 and 4
         straddle the small/medium line. *)
      let path = Gen.Profiles.uniform ~edges:6 ~capacity:12 in
      let low = int_of_float (delta *. 12.0) in
      (path, boundary_tasks prng ~edges:6 ~low_demand:low ~n:8)
  | "halfcap-boundary" ->
      (* Demands 6 and 7 straddle the [(1 - 2 beta) * b = b/2] medium/large
         line on capacity 12. *)
      let path = Gen.Profiles.uniform ~edges:6 ~capacity:12 in
      let low = int_of_float ((1.0 -. (2.0 *. beta)) *. 12.0) in
      (path, boundary_tasks prng ~edges:6 ~low_demand:low ~n:8)
  | "ring-cut" ->
      (* A ring cut at its minimum-capacity edge: the wrap-around structure
         turns into long overlapping path intervals. *)
      let r =
        Gen.Ring_gen.random ~prng ~edges:7 ~n:8 ~cap_lo:4 ~cap_hi:14
          ~ratio_lo:0.0 ~ratio_hi:0.9
      in
      let path, tasks, _ = Ring.cut r ~cut_edge:(min_capacity_edge r.Ring.capacities) in
      (path, tasks)
  | "bb-stress" ->
      (* 40 tasks — far past Sap_brute's guard; low uniform capacity keeps
         the height palette small so Exact_bb still closes the search. *)
      let path = Gen.Profiles.uniform ~edges:8 ~capacity:6 in
      (path, Gen.Workloads.mixed_tasks ~prng ~path ~n:40 ())
  | f -> invalid_arg (Printf.sprintf "Lab.Corpus: unknown path family %S" f)

(* ---------- round families ----------

   ROUND-SAP instances: every task is mandatory, so generators must only
   emit tasks that fit alone (d <= b(j)) — Round.Instance.create rejects
   anything else at read time.  Families are chosen to exercise each
   solver's regime: uniform demands (interval coloring's optimum),
   power-of-two classes (the bands transform is lossless), just-over-half
   capacity demands (the pairwise bound certifies ratio 1), staircase
   bottlenecks (the "tight" subgroup), and a tiny family sized under
   Round.Exact.task_cap so the lab gate can cross-check the
   branch-and-bound against the partition brute force. *)

let round_task prng ~path ~id ~demand_of =
  let edges = Path.num_edges path in
  let first_edge, last_edge =
    Gen.Workloads.random_span ~prng ~edges ~max_span:edges
  in
  let b = Path.bottleneck path ~first:first_edge ~last:last_edge in
  let weight = 1.0 +. Prng.float prng 99.0 in
  Task.make ~id ~first_edge ~last_edge ~demand:(demand_of b) ~weight

let round_tasks prng ~path ~n ~demand_of =
  List.init n (fun id -> round_task prng ~path ~id ~demand_of)

let gen_round family prng =
  match family with
  | "round-uniform" ->
      let path = Gen.Profiles.uniform ~edges:6 ~capacity:12 in
      (path, round_tasks prng ~path ~n:10 ~demand_of:(fun _ -> 3))
  | "round-classes" ->
      let path = Gen.Profiles.uniform ~edges:7 ~capacity:16 in
      let classes = [| 1; 2; 4; 8 |] in
      ( path,
        round_tasks prng ~path ~n:12 ~demand_of:(fun _ ->
            classes.(Prng.int prng (Array.length classes))) )
  | "round-halfcap" ->
      let path = Gen.Profiles.uniform ~edges:6 ~capacity:11 in
      ( path,
        round_tasks prng ~path ~n:8 ~demand_of:(fun b ->
            (b / 2) + 1 + Prng.int prng (b - (b / 2))) )
  | "round-staircase" ->
      let path =
        Gen.Profiles.staircase ~edges:8 ~steps:3 ~base:(Prng.int_in prng 4 6)
      in
      ( path,
        round_tasks prng ~path ~n:10 ~demand_of:(fun b -> 1 + Prng.int prng b) )
  | "round-tiny" ->
      let path =
        Gen.Profiles.uniform ~edges:5 ~capacity:(Prng.int_in prng 6 10)
      in
      ( path,
        round_tasks prng ~path ~n:(Prng.int_in prng 3 6)
          ~demand_of:(fun b -> 1 + Prng.int prng b) )
  | f -> invalid_arg (Printf.sprintf "Lab.Corpus: unknown round family %S" f)

let gen_ring family prng =
  match family with
  | "ring-uniform" ->
      Gen.Ring_gen.random ~prng ~edges:(Prng.int_in prng 5 6)
        ~n:(Prng.int_in prng 5 6) ~cap_lo:4 ~cap_hi:12 ~ratio_lo:0.0
        ~ratio_hi:0.9
  | f -> invalid_arg (Printf.sprintf "Lab.Corpus: unknown ring family %S" f)

let sample_path ~family ~prng = gen_path family prng

let families =
  [
    ("uniform-mixed", Path_kind);
    ("staircase-mixed", Path_kind);
    ("valley-small", Path_kind);
    ("uniform-medium", Path_kind);
    ("walk-large", Path_kind);
    ("delta-boundary", Path_kind);
    ("halfcap-boundary", Path_kind);
    ("ring-cut", Path_kind);
    ("bb-stress", Path_kind);
    ("ring-uniform", Ring_kind);
    ("round-uniform", Round_kind);
    ("round-classes", Round_kind);
    ("round-halfcap", Round_kind);
    ("round-staircase", Round_kind);
    ("round-tiny", Round_kind);
  ]

let path_families =
  List.filter_map
    (fun (f, k) -> match k with Path_kind -> Some f | _ -> None)
    families

let round_families =
  List.filter_map
    (fun (f, k) -> match k with Round_kind -> Some f | _ -> None)
    families

(* ---------- manifest ---------- *)

let manifest_to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (version ^ "\n");
  Buffer.add_string buf (Printf.sprintf "seed %d\n" t.seed);
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "entry %s %s %s\n" e.file (kind_to_string e.kind) e.family))
    t.entries;
  Buffer.contents buf

let ( let* ) = Result.bind

let meaningful_lines s = Io.meaningful_lines (String.split_on_char '\n' s)

let manifest_of_string ~dir s =
  match meaningful_lines s with
  | [] -> Error "empty manifest"
  | header :: rest ->
      let* () =
        if String.trim header = version then Ok ()
        else Error (Printf.sprintf "bad manifest header %S" header)
      in
      let* seed, entry_lines =
        match rest with
        | seed_line :: entries -> (
            match Io.words seed_line with
            | [ "seed"; s ] -> (
                match int_of_string_opt s with
                | Some seed -> Ok (seed, entries)
                | None -> Error (Printf.sprintf "bad seed %S" s))
            | _ -> Error (Printf.sprintf "expected seed line, got %S" seed_line))
        | [] -> Error "missing seed line"
      in
      let parse_entry line =
        match Io.words line with
        | [ "entry"; file; kind; family ] ->
            let* kind = kind_of_string kind in
            Ok { file; kind; family }
        | _ -> Error (Printf.sprintf "malformed entry line %S" line)
      in
      let* entries = Io.map_result parse_entry entry_lines in
      Ok { dir; seed; entries }

(* ---------- generation ---------- *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The per-family prng seed depends on the family's position in
   [families], so appending new families never reshuffles the instances
   existing corpora were generated from. *)
let generate_families ~dir ~seed ~variants selected =
  mkdir_p dir;
  let entries = ref [] in
  List.iteri
    (fun fi (family, kind) ->
      if List.mem_assoc family selected then
        for k = 0 to variants - 1 do
          let prng = Prng.create ((seed * 10007) + (fi * 101) + k) in
          let file = Printf.sprintf "%s-%d.inst" family k in
          let contents =
            match kind with
            | Path_kind ->
                let path, tasks = gen_path family prng in
                Io.instance_to_string path tasks
            | Ring_kind ->
                Io.ring_to_string (gen_ring family prng)
            | Round_kind ->
                let path, tasks = gen_round family prng in
                Io.round_instance_to_string path tasks
          in
          Io.write_file (Filename.concat dir file) contents;
          entries := { file; kind; family } :: !entries
        done)
    families;
  let t = { dir; seed; entries = List.rev !entries } in
  Io.write_file
    (Filename.concat dir manifest_file)
    (manifest_to_string t);
  t

let generate ~dir ~seed ?(variants = 3) () =
  generate_families ~dir ~seed ~variants families

let generate_round ~dir ~seed ?(variants = 3) () =
  generate_families ~dir ~seed ~variants
    (List.filter (fun (_, k) -> k = Round_kind) families)

(* ---------- churn traces ---------- *)

let churn_version = "sap-churn v1"

type churn_event =
  | Churn_add of Task.t
  | Churn_remove of int
  | Churn_resize of int * int

type churn = {
  churn_seed : int;
  churn_path : Path.t;
  churn_base : Task.t list;
  churn_events : churn_event list;
}

(* Two adjacent edges per capacity level: tasks confined to one segment
   keep that level as their bottleneck, so the base instance populates
   six distinct strip-pack bands and a single-task delta dirties exactly
   one of them. *)
let churn_levels = [| 4; 8; 16; 32; 64; 128 |]

let churn_path () =
  Path.create
    (Array.concat (List.map (fun c -> [| c; c |]) (Array.to_list churn_levels)))

let churn_task prng ~id path =
  let level = Prng.int prng (Array.length churn_levels) in
  let first_edge = 2 * level in
  let last_edge = first_edge + Prng.int prng 2 in
  let b = Path.bottleneck path ~first:first_edge ~last:last_edge in
  let demand = 1 + Prng.int prng b in
  let weight = 1.0 +. Prng.float prng 99.0 in
  Task.make ~id ~first_edge ~last_edge ~demand ~weight

let generate_churn ~seed ~steps =
  if steps < 0 then invalid_arg "Lab.Corpus.generate_churn: negative steps";
  let prng = Prng.create ((seed * 48271) + 11) in
  let path = churn_path () in
  let n_base = 24 in
  let base = List.init n_base (fun i -> churn_task prng ~id:i path) in
  let live = Hashtbl.create 64 in
  List.iter (fun (j : Task.t) -> Hashtbl.replace live j.Task.id j) base;
  let next_id = ref n_base in
  let fresh_add () =
    let id = !next_id in
    incr next_id;
    let j = churn_task prng ~id path in
    Hashtbl.replace live id j;
    Churn_add j
  in
  (* Sorted fold keeps the pick independent of hash-table iteration
     order, so a trace is a pure function of the seed. *)
  let pick_live () =
    let ids = Hashtbl.fold (fun id _ acc -> id :: acc) live [] in
    let ids = Array.of_list (List.sort compare ids) in
    ids.(Prng.int prng (Array.length ids))
  in
  let events =
    List.init steps (fun _ ->
        let roll = Prng.int prng 10 in
        if roll < 5 || Hashtbl.length live = 0 then fresh_add ()
        else if roll < 8 then begin
          let id = pick_live () in
          Hashtbl.remove live id;
          Churn_remove id
        end
        else begin
          let id = pick_live () in
          let j = Hashtbl.find live id in
          let b =
            Path.bottleneck path ~first:j.Task.first_edge ~last:j.Task.last_edge
          in
          let demand = 1 + Prng.int prng b in
          Hashtbl.replace live id
            (Task.make ~id ~first_edge:j.Task.first_edge
               ~last_edge:j.Task.last_edge ~demand ~weight:j.Task.weight);
          Churn_resize (id, demand)
        end)
  in
  { churn_seed = seed; churn_path = path; churn_base = base; churn_events = events }

let task_fields (j : Task.t) =
  Printf.sprintf "%d %d %d %d %.17g" j.Task.id j.Task.first_edge j.Task.last_edge
    j.Task.demand j.Task.weight

let churn_to_string c =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (churn_version ^ "\n");
  Buffer.add_string buf (Printf.sprintf "seed %d\n" c.churn_seed);
  Buffer.add_string buf
    (Printf.sprintf "steps %d\n" (List.length c.churn_events));
  Buffer.add_string buf "capacities";
  Array.iter
    (fun cap -> Buffer.add_string buf (" " ^ string_of_int cap))
    (Path.capacities c.churn_path);
  Buffer.add_char buf '\n';
  List.iter
    (fun j -> Buffer.add_string buf (Printf.sprintf "task %s\n" (task_fields j)))
    c.churn_base;
  List.iter
    (fun ev ->
      Buffer.add_string buf
        (match ev with
        | Churn_add j -> Printf.sprintf "event add %s\n" (task_fields j)
        | Churn_remove id -> Printf.sprintf "event remove %d\n" id
        | Churn_resize (id, d) -> Printf.sprintf "event resize %d %d\n" id d))
    c.churn_events;
  Buffer.contents buf

(* Task lines parse as an instance's do, and the base passes the
   instance task-list check (on the path, ids unique). *)
let churn_of_string s =
  match meaningful_lines s with
  | header :: seed_line :: steps_line :: caps_line :: rest
    when String.trim header = churn_version ->
      let* seed =
        match Io.words seed_line with
        | [ "seed"; v ] -> Io.parse_int "seed" v
        | _ -> Error (Printf.sprintf "expected seed line, got %S" seed_line)
      in
      let* steps =
        match Io.words steps_line with
        | [ "steps"; v ] -> Io.parse_int "steps" v
        | _ -> Error (Printf.sprintf "expected steps line, got %S" steps_line)
      in
      let* caps =
        match Io.words caps_line with
        | "capacities" :: values when values <> [] ->
            Io.map_result (Io.parse_quantity "capacity") values
        | _ -> Error "malformed capacities line"
      in
      let* path =
        try Ok (Path.create (Array.of_list caps))
        with Invalid_argument m -> Error m
      in
      let parse_line line =
        match Io.words line with
        | "task" :: fields ->
            let* j = Io.task_of_fields ~line fields in
            Ok (`Task j)
        | [ "event"; "remove"; id ] ->
            let* id = Io.parse_int "id" id in
            Ok (`Event (Churn_remove id))
        | [ "event"; "resize"; id; demand ] ->
            let* id = Io.parse_int "id" id in
            let* demand = Io.parse_quantity "demand" demand in
            let* () = if demand > 0 then Ok () else Error "resize demand must be positive" in
            Ok (`Event (Churn_resize (id, demand)))
        | "event" :: "add" :: fields ->
            let* j = Io.task_of_fields ~line fields in
            let* () = Io.check_tasks path [ j ] in
            Ok (`Event (Churn_add j))
        | _ -> Error (Printf.sprintf "malformed churn line %S" line)
      in
      let* items = Io.map_result parse_line rest in
      let base = List.filter_map (function `Task j -> Some j | _ -> None) items in
      let* () = Io.check_tasks path base in
      let events =
        List.filter_map (function `Event e -> Some e | _ -> None) items
      in
      let* () =
        if List.length events = steps then Ok ()
        else
          Error
            (Printf.sprintf "steps %d does not match %d event lines" steps
               (List.length events))
      in
      Ok
        {
          churn_seed = seed;
          churn_path = path;
          churn_base = base;
          churn_events = events;
        }
  | header :: _ when String.trim header <> churn_version ->
      Error (Printf.sprintf "bad churn header %S" header)
  | _ -> Error "truncated churn trace"

let load ~dir =
  let path = Filename.concat dir manifest_file in
  let* contents =
    try Ok (Io.read_file path)
    with Sys_error m -> Error m
  in
  manifest_of_string ~dir contents

let read t entry =
  let* contents =
    try Ok (Io.read_file (Filename.concat t.dir entry.file))
    with Sys_error m -> Error m
  in
  match entry.kind with
  | Path_kind ->
      let* path, tasks = Io.instance_of_string contents in
      Ok (Path_instance (path, tasks))
  | Ring_kind ->
      let* r = Io.ring_of_string contents in
      Ok (Ring_instance r)
  | Round_kind ->
      let* path, tasks = Io.round_instance_of_string contents in
      let* inst = Round.Instance.create path tasks in
      Ok (Round_instance inst)
