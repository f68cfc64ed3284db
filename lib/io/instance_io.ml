module Task = Core.Task
module Path = Core.Path

let instance_to_string_as ~header path tasks =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (header ^ "\n");
  Buffer.add_string buf "capacities";
  Array.iter (fun c -> Buffer.add_string buf (" " ^ string_of_int c)) (Path.capacities path);
  Buffer.add_char buf '\n';
  List.iter
    (fun (j : Task.t) ->
      Buffer.add_string buf
        (Printf.sprintf "task %d %d %d %d %.17g\n" j.Task.id j.Task.first_edge
           j.Task.last_edge j.Task.demand j.Task.weight))
    tasks;
  Buffer.contents buf

let instance_to_string path tasks =
  instance_to_string_as ~header:"sap-instance v1" path tasks

let solution_to_string sol =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "sap-solution v1\n";
  List.iter
    (fun ((j : Task.t), h) ->
      Buffer.add_string buf (Printf.sprintf "place %d %d\n" j.Task.id h))
    (Core.Solution.sort_by_id sol);
  Buffer.contents buf

(* The lines that carry content: trimmed, without blank and [#] comment
   lines.  Each format has one parser over a line list (a protocol frame
   hands its body lines over as read); [of_string] splits text into lines
   for it. *)
let meaningful_lines lines =
  List.filter_map
    (fun l ->
      let l = String.trim l in
      if l = "" || l.[0] = '#' then None else Some l)
    lines

let of_string parse s = parse (String.split_on_char '\n' s)

(* The space-separated words of a line: [String.split_on_char ' '] less
   its empty pieces, scanned from the end so the list needs no second
   pass. *)
let words line =
  let rec go i acc =
    if i < 0 then acc
    else if line.[i] = ' ' then go (i - 1) acc
    else begin
      let j = ref i in
      while !j >= 0 && line.[!j] <> ' ' do
        decr j
      done;
      go !j (String.sub line (!j + 1) (i - !j) :: acc)
    end
  in
  go (String.length line - 1) []

let ( let* ) = Result.bind

let parse_int what s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "expected integer for %s, got %S" what s)

let max_quantity = 1 lsl 40

let check_quantity what v =
  if v <= max_quantity then Ok v
  else
    Error
      (Printf.sprintf "%s %d exceeds the limit %d (2^40)" what v max_quantity)

let parse_quantity what s =
  let* v = parse_int what s in
  check_quantity what v

let parse_float what s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "expected number for %s, got %S" what s)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let task_of_fields ~line = function
  | [ id; first; last; demand; weight ] ->
      let* id = parse_int "id" id in
      let* first_edge = parse_int "first_edge" first in
      let* last_edge = parse_int "last_edge" last in
      let* demand = parse_quantity "demand" demand in
      let* weight = parse_float "weight" weight in
      (try Ok (Task.make ~id ~first_edge ~last_edge ~demand ~weight)
       with Invalid_argument m -> Error m)
  | _ -> Error (Printf.sprintf "malformed task line %S" line)

let check_tasks path tasks =
  let* () =
    if List.for_all (fun (j : Task.t) -> j.Task.last_edge < Path.num_edges path) tasks
    then Ok ()
    else Error "task leaves the path"
  in
  (* Ids in increasing order (as generators and [gen] write them) cannot
     repeat; any other order is checked with a table. *)
  let rec increasing = function
    | (a : Task.t) :: ((b : Task.t) :: _ as rest) ->
        a.Task.id < b.Task.id && increasing rest
    | _ -> true
  in
  let unique tasks =
    let seen = Hashtbl.create 64 in
    let rec go = function
      | [] -> Ok ()
      | (j : Task.t) :: rest ->
          if Hashtbl.mem seen j.Task.id then
            Error (Printf.sprintf "duplicate task id %d" j.Task.id)
          else begin
            Hashtbl.add seen j.Task.id ();
            go rest
          end
    in
    go tasks
  in
  if increasing tasks then Ok () else unique tasks

let instance_of_lines_as ~header:expected lines =
  match meaningful_lines lines with
  | [] -> Error "empty input"
  | header :: rest ->
      let* () =
        if String.trim header = expected then Ok ()
        else Error (Printf.sprintf "bad header %S" header)
      in
      let* caps_line, task_lines =
        match rest with
        | caps :: tasks -> Ok (caps, tasks)
        | [] -> Error "missing capacities line"
      in
      let* caps =
        match words caps_line with
        | "capacities" :: values when values <> [] ->
            map_result (parse_quantity "capacity") values
        | _ -> Error "malformed capacities line"
      in
      let* path =
        try Ok (Path.create (Array.of_list caps))
        with Invalid_argument m -> Error m
      in
      let parse_task line =
        task_of_fields ~line
          (match words line with "task" :: fields -> fields | _ -> [])
      in
      let* tasks = map_result parse_task task_lines in
      let* () = check_tasks path tasks in
      Ok (path, tasks)

let instance_of_lines = instance_of_lines_as ~header:"sap-instance v1"

let instance_of_string s = of_string instance_of_lines s

(* ---------- round instances / solutions ---------- *)

(* The round-instance carrier is deliberately isomorphic to
   sap-instance: only the header differs, so every generator, pretty
   printer and fuzzer transfers.  The fits-alone check lives in
   Round.Instance.create. *)

let round_instance_to_string path tasks =
  instance_to_string_as ~header:"round-instance v1" path tasks

let round_instance_of_lines = instance_of_lines_as ~header:"round-instance v1"

let round_instance_of_string s = of_string round_instance_of_lines s

let round_solution_to_string rounds =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "round-solution v1\n";
  Buffer.add_string buf (Printf.sprintf "rounds %d\n" (List.length rounds));
  List.iteri
    (fun r sol ->
      List.iter
        (fun ((j : Task.t), h) ->
          Buffer.add_string buf (Printf.sprintf "place %d %d %d\n" j.Task.id r h))
        (Core.Solution.sort_by_id sol))
    rounds;
  Buffer.contents buf

let round_solution_of_lines ~tasks lines =
  let by_id = Hashtbl.create 32 in
  List.iter (fun (j : Task.t) -> Hashtbl.replace by_id j.Task.id j) tasks;
  match meaningful_lines lines with
  | [] -> Error "empty input"
  | header :: rest ->
      let* () =
        if String.trim header = "round-solution v1" then Ok ()
        else Error (Printf.sprintf "bad header %S" header)
      in
      let* count_line, place_lines =
        match rest with
        | c :: p -> Ok (c, p)
        | [] -> Error "missing rounds line"
      in
      let* n =
        match words count_line with
        | [ "rounds"; n ] -> parse_int "round count" n
        | _ -> Error (Printf.sprintf "malformed rounds line %S" count_line)
      in
      let* () =
        if n >= 0 then Ok () else Error "negative round count"
      in
      let parse_place line =
        match words line with
        | [ "place"; id; r; h ] ->
            let* id = parse_int "task id" id in
            let* r = parse_int "round" r in
            let* h = parse_int "height" h in
            let* j =
              match Hashtbl.find_opt by_id id with
              | Some j -> Ok j
              | None -> Error (Printf.sprintf "unknown task id %d" id)
            in
            let* () =
              if r >= 0 && r < n then Ok ()
              else Error (Printf.sprintf "round %d out of range [0, %d)" r n)
            in
            Ok (j, r, h)
        | _ -> Error (Printf.sprintf "malformed place line %S" line)
      in
      let* places = map_result parse_place place_lines in
      let buckets = Array.make n [] in
      List.iter (fun (j, r, h) -> buckets.(r) <- (j, h) :: buckets.(r)) places;
      Ok (Array.to_list (Array.map List.rev buckets))

let round_solution_of_string ~tasks s = of_string (round_solution_of_lines ~tasks) s

let solution_of_lines ~tasks lines =
  let by_id = Hashtbl.create 32 in
  List.iter (fun (j : Task.t) -> Hashtbl.replace by_id j.Task.id j) tasks;
  match meaningful_lines lines with
  | [] -> Error "empty input"
  | header :: rest ->
      let* () =
        if String.trim header = "sap-solution v1" then Ok ()
        else Error (Printf.sprintf "bad header %S" header)
      in
      let parse_place line =
        match words line with
        | [ "place"; id; h ] ->
            let* id = parse_int "task id" id in
            let* h = parse_int "height" h in
            let* j =
              match Hashtbl.find_opt by_id id with
              | Some j -> Ok j
              | None -> Error (Printf.sprintf "unknown task id %d" id)
            in
            Ok (j, h)
        | _ -> Error (Printf.sprintf "malformed place line %S" line)
      in
      map_result parse_place rest

let solution_of_string ~tasks s = of_string (solution_of_lines ~tasks) s

(* ---------- ring instances ---------- *)

module Ring = Core.Ring

let ring_to_string (r : Ring.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "ring-instance v1\n";
  Buffer.add_string buf "capacities";
  Array.iter (fun c -> Buffer.add_string buf (" " ^ string_of_int c)) r.Ring.capacities;
  Buffer.add_char buf '\n';
  Array.iter
    (fun (t : Ring.task) ->
      Buffer.add_string buf
        (Printf.sprintf "rtask %d %d %d %d %.17g\n" t.Ring.id t.Ring.src
           t.Ring.dst t.Ring.demand t.Ring.weight))
    r.Ring.tasks;
  Buffer.contents buf

let ring_of_lines lines =
  match meaningful_lines lines with
  | [] -> Error "empty input"
  | header :: rest ->
      let* () =
        if String.trim header = "ring-instance v1" then Ok ()
        else Error (Printf.sprintf "bad header %S" header)
      in
      let* caps_line, task_lines =
        match rest with
        | caps :: tasks -> Ok (caps, tasks)
        | [] -> Error "missing capacities line"
      in
      let* caps =
        match words caps_line with
        | "capacities" :: values when values <> [] ->
            map_result (parse_quantity "capacity") values
        | _ -> Error "malformed capacities line"
      in
      let m = List.length caps in
      let parse_task line =
        match words line with
        | [ "rtask"; id; src; dst; demand; weight ] ->
            let* id = parse_int "id" id in
            let* src = parse_int "src" src in
            let* dst = parse_int "dst" dst in
            let* demand = parse_quantity "demand" demand in
            let* weight = parse_float "weight" weight in
            (try Ok (Ring.make_task ~id ~src ~dst ~demand ~weight ~t_edges:m)
             with Invalid_argument m -> Error m)
        | _ -> Error (Printf.sprintf "malformed rtask line %S" line)
      in
      let* tasks = map_result parse_task task_lines in
      (try Ok (Ring.create (Array.of_list caps) tasks)
       with Invalid_argument m -> Error m)

let ring_of_string s = of_string ring_of_lines s

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
