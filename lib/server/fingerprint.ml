module Task = Core.Task
module Path = Core.Path

(* Ids are unique per instance, so id order is canonical; the other
   fields only break ties between tasks that share an id. *)
let compare_tasks (a : Task.t) (b : Task.t) =
  let c = Int.compare a.Task.id b.Task.id in
  if c <> 0 then c
  else
    let c = Int.compare a.Task.first_edge b.Task.first_edge in
    if c <> 0 then c
    else
      let c = Int.compare a.Task.last_edge b.Task.last_edge in
      if c <> 0 then c
      else
        let c = Int.compare a.Task.demand b.Task.demand in
        if c <> 0 then c
        else
          Int64.compare
            (Int64.bits_of_float a.Task.weight)
            (Int64.bits_of_float b.Task.weight)

let ids_increasing (tasks : Task.t array) =
  let rec go i =
    i >= Array.length tasks || (tasks.(i - 1).Task.id < tasks.(i).Task.id && go (i + 1))
  in
  go 1

(* LEB128 over the 63 bits of an OCaml int ([lsr] makes a negative
   value a large unsigned one): self-delimiting and injective. *)
let rec add_varint buf v =
  if v land lnot 0x7f = 0 then Buffer.add_char buf (Char.unsafe_chr v)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (v land 0x7f lor 0x80));
    add_varint buf (v lsr 7)
  end

let add_string buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

type t = { key : string; tasks : Task.t array }

let make ~problem ~algorithm ~seed path tasks =
  let tasks = Array.of_list tasks in
  if not (ids_increasing tasks) then Array.sort compare_tasks tasks;
  let buf = Buffer.create (64 + (16 * Array.length tasks)) in
  add_string buf problem;
  add_string buf algorithm;
  add_varint buf seed;
  add_varint buf (Path.num_edges path);
  for e = 0 to Path.num_edges path - 1 do
    add_varint buf (Path.capacity path e)
  done;
  add_varint buf (Array.length tasks);
  Array.iter
    (fun (j : Task.t) ->
      add_varint buf j.Task.id;
      add_varint buf j.Task.first_edge;
      add_varint buf j.Task.last_edge;
      add_varint buf j.Task.demand;
      Buffer.add_int64_le buf (Int64.bits_of_float j.Task.weight))
    tasks;
  { key = Buffer.contents buf; tasks }

let key t = t.key

let solve_key ~problem ~algorithm ~seed path tasks =
  (make ~problem ~algorithm ~seed path tasks).key

let position t (j : Task.t) =
  let rec search lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = compare_tasks t.tasks.(mid) j in
      if c = 0 then Some mid else if c < 0 then search (mid + 1) hi else search lo mid
  in
  search 0 (Array.length t.tasks)

type placements = int array array

let pack t rounds =
  let exception Foreign in
  let pack_round sol =
    let a = Array.make (2 * List.length sol) 0 in
    List.iteri
      (fun i (j, h) ->
        match position t j with
        | Some p ->
            a.(2 * i) <- p;
            a.((2 * i) + 1) <- h
        | None -> raise Foreign)
      sol;
    a
  in
  match Array.of_list (List.map pack_round rounds) with
  | packed -> Some packed
  | exception Foreign -> None

let unpack t packed =
  let unpack_round a =
    List.init (Array.length a / 2) (fun i -> (t.tasks.(a.(2 * i)), a.((2 * i) + 1)))
  in
  Array.to_list (Array.map unpack_round packed)
