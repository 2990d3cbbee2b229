type error = Exn of { exn : string; backtrace : string }

let error_message (Exn { exn; _ }) = exn

let m_jobs = Obs.Metrics.counter "engine.pool.jobs"

let isolated f x =
  match f x with
  | v -> Ok v
  | exception e ->
    let backtrace = Printexc.get_backtrace () in
    Error (Exn { exn = Printexc.to_string e; backtrace })

let map ~jobs f = function
  | [] -> []
  | xs ->
    let items = Array.of_list xs in
    let n = Array.length items in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* Each worker writes only the slots it claimed; [Domain.join] publishes
       them to the calling domain. *)
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        Obs.Metrics.incr m_jobs;
        results.(i) <- Some (isolated f items.(i));
        worker ()
      end
    in
    let helpers =
      List.init (max 0 (min jobs n - 1)) (fun _ -> Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join helpers;
    Array.to_list (Array.map Option.get results)
