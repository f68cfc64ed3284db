(* ---------- percentiles ---------- *)

let min_beyond = 10

let supported_quantile n =
  if n <= min_beyond then None
  else Some (1.0 -. (float_of_int min_beyond /. float_of_int n))

type latency = { n : int; p50_ms : float; p99_ms : float }

let latency seconds =
  let n = Array.length seconds in
  if n = 0 then invalid_arg "Perf_metrics.latency: empty";
  let sorted = Array.copy seconds in
  Array.sort Float.compare sorted;
  let ms q = 1000.0 *. Util.Stats.percentile sorted q in
  { n; p50_ms = ms 0.5; p99_ms = ms 0.99 }

let pp_latency ppf l =
  Format.fprintf ppf "n=%d" l.n;
  match supported_quantile l.n with
  | Some q when q >= 0.99 -> Format.fprintf ppf ", p99 supported"
  | Some q -> Format.fprintf ppf ", p99 unsupported (highest p%.1f)" (100.0 *. q)
  | None -> Format.fprintf ppf ", no percentile supported"

let median a =
  if Array.length a = 0 then invalid_arg "Perf_metrics.median: empty";
  let a = Array.copy a in
  Array.sort Float.compare a;
  Util.Stats.percentile a 0.5

let binned_rate ~bin ~t0 ~t1 instants =
  let bins = int_of_float ((t1 -. t0) /. bin) in
  if bins < 1 then 0.0
  else begin
    let counts = Array.make bins 0.0 in
    Array.iter
      (fun t ->
        let b = int_of_float (Float.floor ((t -. t0) /. bin)) in
        if b >= 0 && b < bins then counts.(b) <- counts.(b) +. 1.0)
      instants;
    median counts /. bin
  end

(* ---------- rungs ---------- *)

let outstanding ~sched ~done_ t =
  let n = ref 0 in
  Array.iteri
    (fun k s ->
      if s <= t && not (done_.(k) <= t) then incr n)
    sched;
  !n

let backlog_growing ~slack samples =
  let n = Array.length samples in
  let q = max 1 (n / 4) in
  if n < 2 then false
  else begin
    let mean lo =
      let s = ref 0 in
      for i = lo to lo + q - 1 do
        s := !s + samples.(i)
      done;
      float_of_int !s /. float_of_int q
    in
    mean (n - q) -. mean 0 > slack
  end

type rung = {
  offered_rps : float;
  achieved_rps : float;
  rung_p99_ms : float;
  growing : bool;
}

let rung_ok ~slo_ms r =
  r.rung_p99_ms <= slo_ms
  && r.achieved_rps >= 0.95 *. r.offered_rps
  && not r.growing

let max_rps_at_slo ~slo_ms rungs =
  List.fold_left
    (fun best r -> if rung_ok ~slo_ms r then Float.max best r.offered_rps else best)
    0.0 rungs

(* ---------- spans ---------- *)

let rec layer_children ~is_layer (sp : Obs.Trace.span) =
  List.concat_map
    (fun (c : Obs.Trace.span) ->
      if is_layer c.name then [ c ] else layer_children ~is_layer c)
    sp.children

(* Length of the union of the children's intervals, clipped to the
   parent's.  Children of one domain never overlap, but spans replayed on
   worker domains could, and the union is the definition either way. *)
let self_time ~is_layer (sp : Obs.Trace.span) =
  let lo = sp.start and hi = sp.start +. sp.duration in
  let intervals =
    layer_children ~is_layer sp
    |> List.map (fun (c : Obs.Trace.span) ->
           (Float.max lo c.start, Float.min hi (c.start +. c.duration)))
    |> List.filter (fun (a, b) -> b > a)
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0.0, lo) intervals
  in
  sp.duration -. covered

type layer_time = { busy : float; self : float; calls : int }

let layer_times ~is_layer roots =
  let tbl = Hashtbl.create 16 in
  let rec walk (sp : Obs.Trace.span) =
    if is_layer sp.name then begin
      let t =
        Option.value (Hashtbl.find_opt tbl sp.name)
          ~default:{ busy = 0.0; self = 0.0; calls = 0 }
      in
      Hashtbl.replace tbl sp.name
        {
          busy = t.busy +. sp.duration;
          self = t.self +. self_time ~is_layer sp;
          calls = t.calls + 1;
        }
    end;
    List.iter walk sp.children
  in
  List.iter walk roots;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* ---------- histograms ---------- *)

let hist_delta (a : Obs.Metrics.histogram_summary)
    (b : Obs.Metrics.histogram_summary) : Obs.Metrics.histogram_summary =
  let buckets =
    Array.init Obs.Metrics.bucket_count (fun i -> b.buckets.(i) - a.buckets.(i))
  in
  let first = ref (-1) and last = ref (-1) in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        if !first < 0 then first := i;
        last := i
      end)
    buckets;
  let lower i = if i <= 0 then 0.0 else Obs.Metrics.bucket_upper (i - 1) in
  {
    count = b.count - a.count;
    sum = b.sum -. a.sum;
    min = (if !first < 0 then Float.nan else lower !first);
    max = (if !last < 0 then Float.nan else Obs.Metrics.bucket_upper !last);
    buckets;
  }

(* ---------- result line ---------- *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let result_json r =
  let metric m =
    if not (Float.is_finite m.value) then
      invalid_arg ("Perf_metrics.result_json: non-finite " ^ m.name);
    ( m.name,
      Obs.Json.Obj
        [ ("value", Obs.Json.Float m.value); ("unit", Obs.Json.String m.unit_) ] )
  in
  Obs.Json.Obj
    [
      ("correct", Obs.Json.Bool r.correct);
      ("attempted", Obs.Json.Int r.attempted);
      ("failed", Obs.Json.Int r.failed);
      ("metrics", Obs.Json.Obj (List.map metric r.metrics));
    ]

let result_of_json j =
  let open Obs.Json in
  let number = function
    | Float f -> Some f
    | Int i -> Some (float_of_int i)
    | _ -> None
  in
  let metric (name, v) =
    match v with
    | Obj [ ("value", v); ("unit", String unit_) ] -> (
        match number v with
        | Some value -> Ok { name; value; unit_ }
        | None -> Error ("metric " ^ name ^ ": value is not a number"))
    | _ -> Error ("metric " ^ name ^ ": expected {value, unit}")
  in
  match j with
  | Obj
      [
        ("correct", Bool correct);
        ("attempted", Int attempted);
        ("failed", Int failed);
        ("metrics", Obj ms);
      ] ->
      List.fold_right
        (fun m acc ->
          match (metric m, acc) with
          | Ok m, Ok ms -> Ok (m :: ms)
          | (Error _ as e), _ | _, (Error _ as e) -> e)
        ms (Ok [])
      |> Result.map (fun metrics -> { correct; attempted; failed; metrics })
  | _ -> Error "expected {correct, attempted, failed, metrics}"
