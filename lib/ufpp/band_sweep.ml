module Task = Core.Task

type result = {
  placed : (Task.t * int) list;
  states : int;
  truncations : int;
}

type state = {
  alive : (Task.t * int) list;  (* sorted by task id; the state's key *)
  weight : float;
  placed : (Task.t * int) list;
}

(* Keys compare by id and height: ids are unique among the swept tasks. *)
module Key = struct
  type t = (Task.t * int) list

  let rec equal a b =
    match (a, b) with
    | [], [] -> true
    | ((i : Task.t), h) :: a, ((j : Task.t), g) :: b ->
        i.Task.id = j.Task.id && h = g && equal a b
    | _ -> false

  let hash alive =
    List.fold_left
      (fun acc ((j : Task.t), h) -> (acc * 65599) + (j.Task.id * 31) + h)
      17 alive
    land max_int
end

module Table = Hashtbl.Make (Key)

(* The heaviest state per key, at the position where its key first
   appeared. *)
let merge states =
  let tbl = Table.create 256 in
  let cells =
    List.fold_left
      (fun cells st ->
        match Table.find_opt tbl st.alive with
        | Some cell ->
            if st.weight > !cell.weight then cell := st;
            cells
        | None ->
            let cell = ref st in
            Table.add tbl st.alive cell;
            cell :: cells)
      [] states
  in
  List.rev_map (fun cell -> !cell) cells

let rec insert (((j : Task.t), _) as x) = function
  | (((i : Task.t), _) as y) :: rest when i.Task.id < j.Task.id -> y :: insert x rest
  | rest -> x :: rest

(* Each state, then the state with [j] placed at each height it admits. *)
let expand heights (j : Task.t) states =
  let fits = heights j in
  let place st acc h =
    let x = (j, h) in
    { alive = insert x st.alive; weight = st.weight +. j.Task.weight; placed = x :: st.placed }
    :: acc
  in
  List.rev
    (List.fold_left
       (fun acc st -> List.fold_left (place st) (st :: acc) (fits st.alive))
       [] states)

let rec take k = function
  | x :: rest when k > 0 -> x :: take (k - 1) rest
  | _ -> []

let by_weight a b = Float.compare b.weight a.weight

let run ~max_states ~edges ~heights ts =
  let starters = Array.make edges [] in
  (* [expiring.(e)]: some task's last edge is [e - 1]. *)
  let expiring = Array.make (edges + 1) false in
  List.iter
    (fun (j : Task.t) ->
      starters.(j.Task.first_edge) <- j :: starters.(j.Task.first_edge);
      expiring.(j.Task.last_edge + 1) <- true)
    ts;
  let truncations = ref 0 and total = ref 0 in
  let step states j =
    let states = expand heights j states in
    if List.compare_length_with states max_states <= 0 then states
    else begin
      incr truncations;
      take max_states (List.stable_sort by_weight states)
    end
  in
  let expire e =
    let live ((j : Task.t), _) = j.Task.last_edge >= e in
    fun st ->
      if List.for_all live st.alive then st
      else { st with alive = List.filter live st.alive }
  in
  let rec sweep e states =
    if e = edges then states
    else
      let states = if expiring.(e) then merge (List.map (expire e) states) else states in
      let states = List.fold_left step states (List.sort Task.compare starters.(e)) in
      total := !total + List.length states;
      sweep (e + 1) states
  in
  let placed =
    match sweep 0 [ { alive = []; weight = 0.0; placed = [] } ] with
    | [] -> []
    | first :: rest ->
        (List.fold_left (fun b st -> if st.weight > b.weight then st else b) first rest)
          .placed
  in
  { placed; states = !total; truncations = !truncations }
