(* A dense-tableau textbook simplex, kept as a test-only oracle for
   [Lp.Ufpp_lp].  Every [x_j <= ub] box constraint is an explicit row plus
   a slack column, so a problem with n variables and r rows pivots over a
   dense (r+1) x (n+r+1) matrix.  Do not call it outside the test suite. *)

type problem = {
  objective : float array;
  rows : (float array * float) list;
}

type outcome =
  | Optimal of { value : float; solution : float array; iterations : int }
  | Unbounded

let box_row ~n j ub =
  let a = Array.make n 0.0 in
  a.(j) <- 1.0;
  (a, ub)

(* Tableau layout: r rows, columns 0..n-1 structural, n..n+r-1 slack,
   last column = rhs.  Row r is the objective row holding reduced costs
   (negated objective: we minimize -c.x). *)
let maximize ?(eps = 1e-9) ?max_iterations problem =
  let n = Array.length problem.objective in
  let rows = Array.of_list problem.rows in
  let r = Array.length rows in
  Array.iter
    (fun (a, b) ->
      if Array.length a <> n then invalid_arg "Simplex: ragged row";
      if b < 0.0 then invalid_arg "Simplex: negative rhs")
    rows;
  let width = n + r + 1 in
  let t = Array.make_matrix (r + 1) width 0.0 in
  Array.iteri
    (fun i (a, b) ->
      Array.blit a 0 t.(i) 0 n;
      t.(i).(n + i) <- 1.0;
      t.(i).(width - 1) <- b)
    rows;
  for j = 0 to n - 1 do
    t.(r).(j) <- -.problem.objective.(j)
  done;
  let basis = Array.init r (fun i -> n + i) in
  let max_iterations =
    match max_iterations with Some k -> k | None -> 50 * (n + r + 1)
  in
  (* Entering column: most negative reduced cost (Dantzig), or the first
     negative one (Bland) once [bland] is set. *)
  let entering bland =
    if bland then begin
      let rec first j =
        if j = n + r then None
        else if t.(r).(j) < -.eps then Some j
        else first (j + 1)
      in
      first 0
    end
    else begin
      let best = ref (-1) and best_val = ref (-.eps) in
      for j = 0 to n + r - 1 do
        if t.(r).(j) < !best_val then begin
          best := j;
          best_val := t.(r).(j)
        end
      done;
      if !best < 0 then None else Some !best
    end
  in
  let leaving col bland =
    (* Minimum ratio test; Bland tie-break on smallest basis index. *)
    let best = ref (-1) and best_ratio = ref infinity in
    for i = 0 to r - 1 do
      let a = t.(i).(col) in
      if a > eps then begin
        let ratio = t.(i).(width - 1) /. a in
        let strictly_better = !best < 0 || ratio < !best_ratio -. eps in
        let tie_break =
          bland && !best >= 0
          && Float.abs (ratio -. !best_ratio) <= eps
          && basis.(i) < basis.(!best)
        in
        if strictly_better || tie_break then begin
          best := i;
          best_ratio := ratio
        end
      end
    done;
    if !best < 0 then None else Some !best
  in
  let pivot row col =
    let p = t.(row).(col) in
    for j = 0 to width - 1 do
      t.(row).(j) <- t.(row).(j) /. p
    done;
    for i = 0 to r do
      if i <> row then begin
        let f = t.(i).(col) in
        if Float.abs f > 0.0 then
          for j = 0 to width - 1 do
            t.(i).(j) <- t.(i).(j) -. (f *. t.(row).(j))
          done
      end
    done;
    basis.(row) <- col
  in
  let degenerate_streak = ref 0 in
  let bland_active = ref false in
  let rec loop iter =
    if iter > max_iterations then failwith "Simplex: iteration limit";
    let bland = !degenerate_streak > 2 * (n + r) in
    if bland && not !bland_active then bland_active := true;
    (if not bland then bland_active := false);
    match entering bland with
    | None ->
        let solution = Array.make n 0.0 in
        Array.iteri
          (fun i b -> if b < n then solution.(b) <- t.(i).(width - 1))
          basis;
        Optimal { value = t.(r).(width - 1); solution; iterations = iter }
    | Some col -> (
        match leaving col bland with
        | None -> Unbounded
        | Some row ->
            let before = t.(row).(width - 1) in
            pivot row col;
            if before <= eps then incr degenerate_streak
            else degenerate_streak := 0;
            loop (iter + 1))
  in
  loop 0
