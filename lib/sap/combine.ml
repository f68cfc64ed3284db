module Task = Core.Task
module Path = Core.Path

type config = {
  eps : float;
  delta : float;
  beta : float;
  rounding : Small.rounding;
  seed : int;
  max_states : int option;
  parallel : bool;
}

let default_config =
  {
    eps = 0.5;
    delta = 0.25;
    beta = 0.25;
    rounding = `Lp 16;
    seed = 42;
    max_states = None;
    parallel = false;
  }

type part = Small_part | Medium_part | Large_part

type report = {
  solution : Core.Solution.sap;
  chosen : part;
  small_solution : Core.Solution.sap;
  medium_solution : Core.Solution.sap;
  large_solution : Core.Solution.sap;
  medium_exact : bool;
}

let q_of_beta beta =
  if not (0.0 < beta && beta < 0.5) then invalid_arg "Combine: beta in (0, 1/2)";
  max 1 (int_of_float (ceil (Float.log2 (1.0 /. beta))))

let g_weight_small = Obs.Metrics.gauge "combine.weight.small"

let g_weight_medium = Obs.Metrics.gauge "combine.weight.medium"

let g_weight_large = Obs.Metrics.gauge "combine.weight.large"

let h_small_seconds = Obs.Metrics.histogram "combine.part_seconds.small"

let h_medium_seconds = Obs.Metrics.histogram "combine.part_seconds.medium"

let h_large_seconds = Obs.Metrics.histogram "combine.part_seconds.large"

let c_chosen_small = Obs.Metrics.counter "combine.chosen.small"

let c_chosen_medium = Obs.Metrics.counter "combine.chosen.medium"

let c_chosen_large = Obs.Metrics.counter "combine.chosen.large"

let c_chosen = function
  | Small_part -> c_chosen_small
  | Medium_part -> c_chosen_medium
  | Large_part -> c_chosen_large

let part_name = function
  | Small_part -> "small"
  | Medium_part -> "medium"
  | Large_part -> "large"

let split config path ts =
  Core.Classify.split3 path ~delta:config.delta
    ~large_frac:(1.0 -. (2.0 *. config.beta))
    ts

let solve_report ?(config = default_config) path ts =
  let ts =
    List.filter (fun (j : Task.t) -> j.Task.demand <= Path.bottleneck_of path j) ts
  in
  let split = split config path ts in
  let q = q_of_beta config.beta in
  let ell = Almost_uniform.ell_for_eps ~eps:config.eps ~q in
  Obs.Trace.with_span "combine.solve"
    ~attrs:
      [
        ("tasks", string_of_int (List.length ts));
        ("ell", string_of_int ell);
        ("q", string_of_int q);
        ("small_tasks", string_of_int (List.length split.Core.Classify.small));
        ("medium_tasks", string_of_int (List.length split.Core.Classify.medium));
        ("large_tasks", string_of_int (List.length split.Core.Classify.large));
        ("parallel", string_of_bool config.parallel);
      ]
  @@ fun () ->
  (* The three specialists are independent; with [parallel] they run in
     their own domains.  Each gets identical inputs either way (the PRNG is
     created per part), so parallel and sequential runs agree exactly.
     Spans opened inside a worker domain surface as separate root spans. *)
  let small_thunk () =
    Obs.Trace.with_span "combine.part.small" @@ fun () ->
    Obs.Metrics.time h_small_seconds @@ fun () ->
    let prng = Util.Prng.create config.seed in
    `Small
      (Small.strip_pack ~parallel:config.parallel ~rounding:config.rounding
         ~prng path split.Core.Classify.small)
  in
  let medium_thunk () =
    Obs.Trace.with_span "combine.part.medium" @@ fun () ->
    Obs.Metrics.time h_medium_seconds @@ fun () ->
    `Medium
      (Almost_uniform.run ~ell ~q ?max_states:config.max_states path
         split.Core.Classify.medium)
  in
  let large_thunk () =
    Obs.Trace.with_span "combine.part.large" @@ fun () ->
    Obs.Metrics.time h_large_seconds @@ fun () ->
    `Large (Large.solve path split.Core.Classify.large)
  in
  let jobs = if config.parallel then 3 else 1 in
  let results =
    Util.Parallel.map ~jobs (fun f -> f ()) [ small_thunk; medium_thunk; large_thunk ]
  in
  let small_solution, medium, large_solution =
    match results with
    | [ `Small s; `Medium m; `Large l ] -> (s, m, l)
    | _ -> assert false
  in
  let w_small = Core.Solution.sap_weight small_solution in
  let w_medium = Core.Solution.sap_weight medium.Almost_uniform.solution in
  let w_large = Core.Solution.sap_weight large_solution in
  let chosen, solution =
    if w_small >= w_medium && w_small >= w_large then (Small_part, small_solution)
    else if w_medium >= w_large then (Medium_part, medium.Almost_uniform.solution)
    else (Large_part, large_solution)
  in
  Obs.Metrics.set g_weight_small w_small;
  Obs.Metrics.set g_weight_medium w_medium;
  Obs.Metrics.set g_weight_large w_large;
  Obs.Metrics.incr (c_chosen chosen);
  Obs.Trace.add_attr "chosen" (part_name chosen);
  Obs.Trace.add_attr "weight_small" (Printf.sprintf "%.6g" w_small);
  Obs.Trace.add_attr "weight_medium" (Printf.sprintf "%.6g" w_medium);
  Obs.Trace.add_attr "weight_large" (Printf.sprintf "%.6g" w_large);
  {
    solution;
    chosen;
    small_solution;
    medium_solution = medium.Almost_uniform.solution;
    large_solution;
    medium_exact = medium.Almost_uniform.exact;
  }

let solve ?config path ts = (solve_report ?config path ts).solution

let pp_part ppf = function
  | Small_part -> Format.pp_print_string ppf "small"
  | Medium_part -> Format.pp_print_string ppf "medium"
  | Large_part -> Format.pp_print_string ppf "large"

(* ---------- audit ---------- *)

type bound_kind = Lp_bound | Exact_bound

let bound_kind_name = function Lp_bound -> "lp" | Exact_bound -> "exact"

type audit = {
  upper_bound : float;
  bound_kind : bound_kind;
  achieved_weight : float;
  total_weight : float;
  empirical_ratio : float option;
  checker_ok : bool;
  checker_error : string option;
  scheduled : int;
  tasks : int;
  chosen_part : part;
  weight_small : float;
  weight_medium : float;
  weight_large : float;
  medium_exact : bool;
}

let h_ratio = Obs.Metrics.histogram "combine.empirical_ratio"

let g_lp_upper_bound = Obs.Metrics.gauge "combine.lp_upper_bound"

let c_checker_failures = Obs.Metrics.counter "combine.audit.checker_failures"

let audit ?lp_upper_bound ?exact_optimum path ts r =
  (* An exact optimum (from the lab's branch and bound) beats the LP
     relaxation: it makes the empirical ratio a true OPT/ALG, not an
     over-estimate.  The record says which one it got. *)
  let ub, kind =
    match (exact_optimum, lp_upper_bound) with
    | Some v, _ -> (v, Exact_bound)
    | None, Some v -> (v, Lp_bound)
    | None, None -> (Lp.Ufpp_lp.upper_bound path ts, Lp_bound)
  in
  let achieved = Core.Solution.sap_weight r.solution in
  let ratio = if achieved > 0.0 then Some (ub /. achieved) else None in
  let checker = Core.Checker.sap_feasible path r.solution in
  (match kind with
  | Lp_bound -> Obs.Metrics.set g_lp_upper_bound ub
  | Exact_bound -> ());
  (match ratio with Some x -> Obs.Metrics.observe h_ratio x | None -> ());
  if Result.is_error checker then Obs.Metrics.incr c_checker_failures;
  {
    upper_bound = ub;
    bound_kind = kind;
    achieved_weight = achieved;
    total_weight = Task.weight_of ts;
    empirical_ratio = ratio;
    checker_ok = Result.is_ok checker;
    checker_error = (match checker with Ok () -> None | Error m -> Some m);
    scheduled = List.length r.solution;
    tasks = List.length ts;
    chosen_part = r.chosen;
    weight_small = Core.Solution.sap_weight r.small_solution;
    weight_medium = Core.Solution.sap_weight r.medium_solution;
    weight_large = Core.Solution.sap_weight r.large_solution;
    medium_exact = r.medium_exact;
  }

let audit_json a =
  Obs.Json.Obj
    [
      ("upper_bound", Obs.Json.Float a.upper_bound);
      ("bound_kind", Obs.Json.String (bound_kind_name a.bound_kind));
      ("achieved_weight", Obs.Json.Float a.achieved_weight);
      ("total_weight", Obs.Json.Float a.total_weight);
      ( "empirical_ratio",
        match a.empirical_ratio with
        | Some x -> Obs.Json.Float x
        | None -> Obs.Json.Null );
      ( "checker",
        Obs.Json.Obj
          [
            ("ok", Obs.Json.Bool a.checker_ok);
            ( "error",
              match a.checker_error with
              | Some m -> Obs.Json.String m
              | None -> Obs.Json.Null );
          ] );
      ("scheduled", Obs.Json.Int a.scheduled);
      ("tasks", Obs.Json.Int a.tasks);
      ( "parts",
        Obs.Json.Obj
          [
            ("small", Obs.Json.Float a.weight_small);
            ("medium", Obs.Json.Float a.weight_medium);
            ("large", Obs.Json.Float a.weight_large);
            ("chosen", Obs.Json.String (part_name a.chosen_part));
            ("medium_exact", Obs.Json.Bool a.medium_exact);
          ] );
    ]

let pp_audit ppf a =
  (match a.bound_kind with
  | Lp_bound -> Format.fprintf ppf "@[<v>lp upper bound    %.3f@," a.upper_bound
  | Exact_bound -> Format.fprintf ppf "@[<v>exact optimum     %.3f@," a.upper_bound);
  Format.fprintf ppf "achieved weight   %.3f  (of %.3f total)@," a.achieved_weight
    a.total_weight;
  (match a.empirical_ratio with
  | Some x -> Format.fprintf ppf "empirical ratio   %.3f  (guarantee: 9+eps)@," x
  | None -> Format.fprintf ppf "empirical ratio   n/a (zero weight scheduled)@,");
  Format.fprintf ppf "checker           %s@,"
    (match a.checker_error with
    | None -> "feasible"
    | Some m -> "INFEASIBLE: " ^ m);
  Format.fprintf ppf "scheduled         %d of %d tasks@," a.scheduled a.tasks;
  Format.fprintf ppf "parts             small %.3f | medium %.3f%s | large %.3f -> %a@]"
    a.weight_small a.weight_medium
    (if a.medium_exact then " (exact)" else "")
    a.weight_large pp_part a.chosen_part
