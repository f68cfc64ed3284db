let default_jobs () = max 1 (Domain.recommended_domain_count ())

let map ?jobs f xs =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  match xs with
  | [] -> []
  | _ when jobs = 1 -> List.map f xs
  | _ ->
      let input = Array.of_list xs in
      let n = Array.length input in
      let jobs = min jobs n in
      let output = Array.make n None in
      let worker w () =
        (* Strided slice: worker w handles indices w, w+jobs, ...  The
           span makes the worker's lifetime a root span of its own domain,
           so Obs.Chrome_trace renders each worker as its own lane. *)
        Obs.Trace.with_span "parallel.worker"
          ~attrs:[ ("worker", string_of_int w); ("jobs", string_of_int jobs) ]
        @@ fun () ->
        let rec go i =
          if i < n then begin
            output.(i) <- Some (f input.(i));
            go (i + jobs)
          end
        in
        go w
      in
      let domains = List.init jobs (fun w -> Domain.spawn (worker w)) in
      let first_error = ref None in
      List.iter
        (fun d ->
          match Domain.join d with
          | () -> ()
          | exception e -> if !first_error = None then first_error := Some e)
        domains;
      (match !first_error with Some e -> raise e | None -> ());
      (* Single right-to-left pass; no intermediate option list. *)
      Array.fold_right
        (fun o acc -> match o with Some y -> y :: acc | None -> assert false)
        output []
