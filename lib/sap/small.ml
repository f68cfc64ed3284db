module Task = Core.Task
module Path = Core.Path

type rounding = [ `Lp of int | `Local_ratio ]

let m_bands = Obs.Metrics.counter "small.bands"

let m_dropped = Obs.Metrics.counter "small.dropped_tasks"

let h_loss = Obs.Metrics.histogram "small.loss_fraction"

let h_lp_objective = Obs.Metrics.histogram "small.lp_objective"

let h_band_seconds = Obs.Metrics.histogram "small.band_seconds"

type warm = Lp.Ufpp_lp.warm

let solve_band ?warm ~b ~rounding ~prng path ts =
  List.iter
    (fun (j : Task.t) ->
      let bj = Path.bottleneck_of path j in
      if bj < b || bj >= 2 * b then
        invalid_arg "Small.solve_band: bottleneck outside [B, 2B)")
    ts;
  let budget = b / 2 in
  if budget = 0 || ts = [] then ([], None)
  else Obs.Metrics.time h_band_seconds @@ fun () -> begin
    Obs.Metrics.incr m_bands;
    (* Step 1-3: a budget-packable UFPP solution inside the band. *)
    let strip_ufpp, warm' =
      match rounding with
      | `Local_ratio -> (Ufpp.Strip_local_ratio.solve ~b path ts, None)
      | `Lp trials ->
          (* Observation 2 makes clipping free; when every capacity is
             already at most 2B it is also the identity, so skip the
             profile copy. *)
          let clipped =
            if 2 * b >= Path.max_capacity path then path
            else Path.clip path (2 * b)
          in
          let lp, warm' =
            Lp.Ufpp_lp.solve_scaled_warm clipped ~scale:1.0 ?warm ts
          in
          Obs.Metrics.observe h_lp_objective lp.Lp.Ufpp_lp.value;
          (* Formatted only under tracing: a session resolve packs one
             band in about 10 us, and the formatting costs about 1 us. *)
          if Obs.Trace.enabled () then begin
            Obs.Trace.add_attr "lp_objective"
              (Printf.sprintf "%.6g" lp.Lp.Ufpp_lp.value);
            Obs.Trace.add_attr "rounding_trials" (string_of_int trials)
          end;
          let fractional =
            Array.to_list lp.Lp.Ufpp_lp.tasks
            |> List.mapi (fun i j -> (j, 0.25 *. lp.Lp.Ufpp_lp.solution.(i)))
          in
          (Ufpp.Lp_rounding.round ~budget ~trials ~prng path fractional, warm')
    in
    (* Step 4: strip transform (role of Lemma 4). *)
    let r =
      Dsa.Strip_transform.transform ~height:budget ~edges:(Path.num_edges path)
        strip_ufpp
    in
    let loss = Dsa.Strip_transform.loss_fraction r in
    Obs.Metrics.observe h_loss loss;
    Obs.Metrics.add m_dropped (List.length r.Dsa.Strip_transform.dropped);
    if Obs.Trace.enabled () then begin
      Obs.Trace.add_attr "loss_fraction" (Printf.sprintf "%.6g" loss);
      Obs.Trace.add_attr "dropped"
        (string_of_int (List.length r.Dsa.Strip_transform.dropped))
    end;
    (r.Dsa.Strip_transform.packed, warm')
  end

(* Exactly how many PRNG draws [solve_band] consumes: the LP-rounding
   path draws one Bernoulli per task per trial (the per-trial filter
   evaluates every task), and nothing else in the band touches the
   generator.  Empty bands and bands with budget [b/2 = 0] return
   before rounding. *)
let band_draws ~rounding ~b n_tasks =
  match rounding with
  | `Local_ratio -> 0
  | `Lp trials -> if b / 2 = 0 then 0 else trials * n_tasks

let strip_pack ?(parallel = false) ~rounding ~prng path ts =
  let ts = List.filter (fun (j : Task.t) -> j.Task.demand <= Path.bottleneck_of path j) ts in
  let bands = Core.Classify.strip_bands path ts in
  Obs.Trace.with_span "small.strip_pack"
    ~attrs:
      [
        ("tasks", string_of_int (List.length ts));
        ("bands", string_of_int (List.length bands));
        ("parallel", string_of_bool parallel);
      ]
    (fun () ->
      (* Bands are independent, so they fan out over domains.  Each band
         gets a child generator jumped to the exact stream position the
         sequential fold would reach it at, so parallel and sequential
         runs place identical tasks — and both match the historical
         single-generator fold bit for bit. *)
      let offsets, total =
        List.fold_left
          (fun (offs, off) (t, band_tasks) ->
            let b = 1 lsl t in
            (off :: offs, off + band_draws ~rounding ~b (List.length band_tasks)))
          ([], 0) bands
      in
      let jobs = if parallel then Util.Parallel.default_jobs () else 1 in
      let solutions =
        Util.Parallel.map ~jobs
          (fun ((t, band_tasks), offset) ->
            let b = 1 lsl t in
            let child = Util.Prng.jump prng offset in
            Obs.Trace.with_span "small.band"
              ~attrs:
                [
                  ("t", string_of_int t);
                  ("b", string_of_int b);
                  ("tasks", string_of_int (List.length band_tasks));
                ]
              (fun () ->
                fst (solve_band ~b ~rounding ~prng:child path band_tasks)))
          (List.combine bands (List.rev offsets))
      in
      Util.Prng.skip prng total;
      List.fold_left2
        (fun acc (t, _) sol ->
          let b = 1 lsl t in
          (* Strip-Pack line 3: lift band t's strip into [2^(t-1), 2^t). *)
          let lifted = Core.Solution.lift sol (b / 2) in
          Core.Solution.union acc lifted)
        [] bands solutions)
