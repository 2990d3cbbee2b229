type error = Exn of { exn : string; backtrace : string }

let error_message (Exn { exn; _ }) = exn

let now () = Unix.gettimeofday ()

(* Pool observability (no-ops while Obs is disabled): item count, delay
   from the start of the map to the start of each item vs the item's run
   time, and per-worker busy time (one observation per worker). *)
let m_jobs = Obs.Metrics.counter "engine.pool.jobs"
let m_wait = Obs.Metrics.histogram "engine.pool.wait_s"
let m_run = Obs.Metrics.histogram "engine.pool.run_s"
let m_busy = Obs.Metrics.histogram "engine.pool.worker_busy_s"

let isolated f x =
  match f x with
  | v -> Ok v
  | exception e ->
    let backtrace = Printexc.get_backtrace () in
    Error (Exn { exn = Printexc.to_string e; backtrace })

let map ?(jobs = 1) f = function
  | [] -> []
  | xs ->
    let items = Array.of_list xs in
    let n = Array.length items in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let t0 = now () in
    (* Each worker writes only the slots it claimed; [Domain.join] publishes
       them to the calling domain. *)
    let worker () =
      let busy = ref 0.0 in
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          Obs.Metrics.incr m_jobs;
          if Obs.enabled () then begin
            let start = now () in
            Obs.Metrics.observe m_wait (start -. t0);
            results.(i) <- Some (isolated f items.(i));
            let dt = now () -. start in
            busy := !busy +. dt;
            Obs.Metrics.observe m_run dt
          end
          else results.(i) <- Some (isolated f items.(i));
          loop ()
        end
      in
      loop ();
      if Obs.enabled () then Obs.Metrics.observe m_busy !busy
    in
    let helpers =
      List.init (max 0 (min jobs n - 1)) (fun _ -> Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join helpers;
    Array.to_list (Array.map Option.get results)
