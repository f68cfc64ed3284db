(* Bench-side replay of [Sap.Combine.solve_report] (default config): the
   same steps, through each layer's public entry points, with every call
   wrapped in a span named after its layer.  This splits solve time by
   layer without adding a span under lib/.  A replay is only trusted when
   its placements equal the real solve's, which [combine_checked] asserts;
   a drift between this file and lib/sap fails the run instead of
   mis-attributing time. *)

module Task = Core.Task
module Path = Core.Path
module Combine = Sap.Combine

let config = Combine.default_config

let trials =
  match config.Combine.rounding with
  | `Lp trials -> trials
  | `Local_ratio -> invalid_arg "Replay: the default config rounds with the LP"

(* Span names double as metric prefixes; anything else in the trace (the
   library's own spans) is looked through when computing self time. *)
let layers =
  [
    "sap.combine";
    "sap.small";
    "sap.medium";
    "sap.large";
    "sap.elevator";
    "lp.ufpp_lp";
    "ufpp.lp_rounding";
    "dsa.strip_transform";
    "rects.rect_mwis";
    "core.checker";
    "server.protocol.decode";
    "server.protocol.encode";
    "server.protocol.client_decode";
    "server.fingerprint";
    "server.session.resolve";
  ]

let is_layer name = List.mem name layers

let span = Obs.Trace.with_span

(* Work the spans cannot see: per-band strip losses, Elevator exactness and
   how many tasks the checker and the fingerprint walked. *)
type tally = {
  mutable loss_sum : float;
  mutable strip_bands : int;
  mutable elevator_bands : int;
  mutable exact_bands : int;
  mutable checked_tasks : int;
  mutable fingerprinted_tasks : int;
}

let tally =
  {
    loss_sum = 0.0;
    strip_bands = 0;
    elevator_bands = 0;
    exact_bands = 0;
    checked_tasks = 0;
    fingerprinted_tasks = 0;
  }

let check path sol =
  tally.checked_tasks <- tally.checked_tasks + List.length sol;
  span "core.checker" (fun () -> Core.Checker.sap_feasible path sol)

let fits path (j : Task.t) = j.Task.demand <= Path.bottleneck_of path j

(* [Small.solve_band] with the LP rounding engine. *)
let small_band ~b ~prng path ts =
  let budget = b / 2 in
  if budget = 0 then []
  else begin
    let clipped = if 2 * b >= Path.max_capacity path then path else Path.clip path (2 * b) in
    let lp = span "lp.ufpp_lp" (fun () -> Lp.Ufpp_lp.solve clipped ts) in
    let fractional =
      Array.to_list lp.Lp.Ufpp_lp.tasks
      |> List.mapi (fun i j -> (j, 0.25 *. lp.Lp.Ufpp_lp.solution.(i)))
    in
    let rounded =
      span "ufpp.lp_rounding" (fun () ->
          Ufpp.Lp_rounding.round ~budget ~trials ~prng path fractional)
    in
    let r =
      span "dsa.strip_transform" (fun () ->
          Dsa.Strip_transform.transform ~height:budget ~edges:(Path.num_edges path)
            rounded)
    in
    tally.loss_sum <- tally.loss_sum +. Dsa.Strip_transform.loss_fraction r;
    tally.strip_bands <- tally.strip_bands + 1;
    r.Dsa.Strip_transform.packed
  end

(* [Small.strip_pack], sequential: band [i] draws from the generator jumped
   past the Bernoulli draws (one per task per trial) of the bands before
   it, exactly as the library does. *)
let small path ts =
  span "sap.small" @@ fun () ->
  let prng = Util.Prng.create config.Combine.seed in
  let bands = Core.Classify.strip_bands path ts in
  let _, jobs =
    List.fold_left
      (fun (offset, acc) (t, band) ->
        let b = 1 lsl t in
        let draws = if b / 2 = 0 then 0 else trials * List.length band in
        (offset + draws, (b, band, offset) :: acc))
      (0, []) bands
  in
  List.fold_left
    (fun acc (b, band, offset) ->
      let sol = small_band ~b ~prng:(Util.Prng.jump prng offset) path band in
      Core.Solution.union acc (Core.Solution.lift sol (b / 2)))
    [] (List.rev jobs)

(* [Almost_uniform.run] with the Elevator on every band. *)
let medium path ts =
  span "sap.medium" @@ fun () ->
  let q = Combine.q_of_beta config.Combine.beta in
  let ell = Sap.Almost_uniform.ell_for_eps ~eps:config.Combine.eps ~q in
  let bands =
    List.map
      (fun (k, band) ->
        let r =
          span "sap.elevator" (fun () ->
              Sap.Elevator.solve ~k ~ell ~q ?max_states:config.Combine.max_states path
                band)
        in
        tally.elevator_bands <- tally.elevator_bands + 1;
        if r.Sap.Elevator.exact then tally.exact_bands <- tally.exact_bands + 1;
        (k, r.Sap.Elevator.solution))
      (Core.Classify.power_bands path ~ell ts)
  in
  let period = ell + q in
  let best = ref [] and best_w = ref neg_infinity in
  for r = 0 to period - 1 do
    let sol =
      List.fold_left
        (fun acc (k, s) ->
          if ((k mod period) + period) mod period = r then Core.Solution.union acc s
          else acc)
        [] bands
    in
    if Result.is_ok (check path sol) then begin
      let w = Core.Solution.sap_weight sol in
      if w > !best_w then begin
        best_w := w;
        best := sol
      end
    end
  done;
  !best

let large path ts =
  span "sap.large" @@ fun () ->
  let rects = Rects.Rect.of_tasks path (List.filter (fits path) ts) in
  List.map Rects.Rect.to_sap_placement
    (span "rects.rect_mwis" (fun () -> Rects.Rect_mwis.solve rects))

type parts = {
  solution : Core.Solution.sap;
  small_solution : Core.Solution.sap;
  medium_solution : Core.Solution.sap;
  large_solution : Core.Solution.sap;
}

let combine path ts =
  span "sap.combine" @@ fun () ->
  let ts = List.filter (fits path) ts in
  let split =
    Core.Classify.split3 path ~delta:config.Combine.delta
      ~large_frac:(1.0 -. (2.0 *. config.Combine.beta))
      ts
  in
  let s = small path split.Core.Classify.small in
  let m = medium path split.Core.Classify.medium in
  let l = large path split.Core.Classify.large in
  let ws = Core.Solution.sap_weight s
  and wm = Core.Solution.sap_weight m
  and wl = Core.Solution.sap_weight l in
  let solution = if ws >= wm && ws >= wl then s else if wm >= wl then m else l in
  { solution; small_solution = s; medium_solution = m; large_solution = l }

(* The real solve runs with collection off, so its counters and spans stay
   out of the replay's numbers; the replay must reproduce it exactly. *)
let combine_checked path ts =
  Obs.Report.disable_all ();
  let real = Combine.solve_report path ts in
  Obs.Report.enable_all ();
  let replayed = combine path ts in
  let same =
    replayed.solution = real.Combine.solution
    && replayed.small_solution = real.Combine.small_solution
    && replayed.medium_solution = real.Combine.medium_solution
    && replayed.large_solution = real.Combine.large_solution
  in
  if same then Ok replayed.solution
  else Error "replayed placements differ from Combine.solve_report"
