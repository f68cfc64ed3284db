module Task = Core.Task
module Path = Core.Path

type band_outcome = {
  k : int;
  band_tasks : Core.Task.t list;
  band_solution : Core.Solution.sap;
  band_exact : bool;
}

type result = {
  solution : Core.Solution.sap;
  chosen_residue : int;
  exact : bool;
  bands : band_outcome list;
}

let m_bands = Obs.Metrics.counter "almost_uniform.bands"

let m_inexact_bands = Obs.Metrics.counter "almost_uniform.inexact_bands"

let m_infeasible_candidates = Obs.Metrics.counter "almost_uniform.infeasible_candidates"

let g_chosen_residue = Obs.Metrics.gauge "almost_uniform.chosen_residue"

let ell_for_eps ~eps ~q =
  if eps <= 0.0 then invalid_arg "Almost_uniform.ell_for_eps";
  max 1 (int_of_float (ceil (float_of_int q /. eps)))

let positive_mod a p = (a mod p + p) mod p

let run ~ell ~q ?max_states path ts =
  if ell < 1 || q < 1 then invalid_arg "Almost_uniform.run: ell, q >= 1";
  Obs.Trace.with_span "almost_uniform.run"
    ~attrs:
      [
        ("ell", string_of_int ell);
        ("q", string_of_int q);
        ("tasks", string_of_int (List.length ts));
      ]
  @@ fun () ->
  let groups = Core.Classify.power_bands path ~ell ts in
  let bands =
    List.map
      (fun (k, band_tasks) ->
        Obs.Trace.with_span "almost_uniform.band"
          ~attrs:
            [
              ("k", string_of_int k);
              ("tasks", string_of_int (List.length band_tasks));
            ]
        @@ fun () ->
        let r = Elevator.solve ~k ~ell ~q ?max_states path band_tasks in
        Obs.Metrics.incr m_bands;
        if not r.Elevator.exact then Obs.Metrics.incr m_inexact_bands;
        Obs.Trace.add_attr "exact" (string_of_bool r.Elevator.exact);
        Obs.Trace.add_attr "placed"
          (string_of_int (List.length r.Elevator.solution));
        {
          k;
          band_tasks;
          band_solution = r.Elevator.solution;
          band_exact = r.Elevator.exact;
        })
      groups
  in
  let period = ell + q in
  let candidate r =
    bands
    |> List.filter (fun b -> positive_mod b.k period = r)
    |> List.fold_left (fun acc b -> Core.Solution.union acc b.band_solution) []
  in
  let best = ref [] in
  let best_w = ref neg_infinity in
  let best_r = ref 0 in
  for r = 0 to period - 1 do
    let sol = candidate r in
    if Result.is_ok (Core.Checker.sap_feasible path sol) then begin
      let w = Core.Solution.sap_weight sol in
      if w > !best_w then begin
        best_w := w;
        best := sol;
        best_r := r
      end
    end
    else Obs.Metrics.incr m_infeasible_candidates
  done;
  Obs.Metrics.set g_chosen_residue (float_of_int !best_r);
  Obs.Trace.add_attr "chosen_residue" (string_of_int !best_r);
  {
    solution = !best;
    chosen_residue = !best_r;
    exact = List.for_all (fun b -> b.band_exact) bands;
    bands;
  }
