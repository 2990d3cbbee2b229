type error =
  | Exn of { exn : string; backtrace : string }
  | Timeout of float
  | Cancelled

let error_message = function
  | Exn { exn; _ } -> exn
  | Timeout s -> Printf.sprintf "timed out after %.3fs" s
  | Cancelled -> "cancelled"

let now () = Unix.gettimeofday ()

(* Pool observability (no-ops while Obs is disabled): job counts, queue
   high-water mark, queueing delay vs execution time, and per-worker busy
   time (one observation per worker at pool shutdown). *)
let m_jobs = Obs.Metrics.counter "engine.pool.jobs"
let m_queue_depth = Obs.Metrics.gauge "engine.pool.queue_depth_max"
let m_wait = Obs.Metrics.histogram "engine.pool.wait_s"
let m_run = Obs.Metrics.histogram "engine.pool.run_s"
let m_busy = Obs.Metrics.histogram "engine.pool.worker_busy_s"

type 'a state =
  | Queued of (unit -> 'a)
  | Running
  | Settled of ('a, error) result

type 'a promise = {
  p_mutex : Mutex.t;
  p_settled : Condition.t;
  submitted_at : float;
  deadline : float option;
  mutable cancelled : bool;
  mutable state : 'a state;
}

type 'a t = {
  mutex : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  queue : 'a promise Queue.t;
  cap : int;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let settle p r =
  Mutex.lock p.p_mutex;
  (match p.state with
   | Settled _ -> ()  (* cancel raced with completion; first settle wins *)
   | Queued _ | Running ->
     p.state <- Settled r;
     Condition.broadcast p.p_settled);
  Mutex.unlock p.p_mutex

(* Claim a dequeued promise for execution. Returns the thunk to run, or
   settles the promise right away when it is cancelled or already past its
   deadline. *)
let claim p =
  Mutex.lock p.p_mutex;
  let action =
    match p.state with
    | Settled _ -> `Skip
    | Running -> `Skip  (* impossible: each promise is queued once *)
    | Queued thunk ->
      if p.cancelled then begin
        p.state <- Settled (Error Cancelled);
        Condition.broadcast p.p_settled;
        `Skip
      end
      else begin
        match p.deadline with
        | Some d when now () > d ->
          p.state <- Settled (Error (Timeout (now () -. p.submitted_at)));
          Condition.broadcast p.p_settled;
          `Skip
        | _ ->
          p.state <- Running;
          `Run thunk
      end
  in
  Mutex.unlock p.p_mutex;
  action

let run_claimed p thunk =
  let result =
    match thunk () with
    | v -> Ok v
    | exception e ->
      let backtrace = Printexc.get_backtrace () in
      Error (Exn { exn = Printexc.to_string e; backtrace })
  in
  let result =
    if p.cancelled then Error Cancelled
    else
      match (result, p.deadline) with
      | Ok _, Some d when now () > d ->
        Error (Timeout (now () -. p.submitted_at))
      | r, _ -> r
  in
  settle p result

let worker t () =
  let busy = ref 0.0 in
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.not_empty t.mutex
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.mutex (* closed: exit *)
    else begin
      let p = Queue.pop t.queue in
      Condition.signal t.not_full;
      Mutex.unlock t.mutex;
      (match claim p with
       | `Run thunk when Obs.enabled () ->
         Obs.Metrics.observe m_wait (now () -. p.submitted_at);
         let t0 = now () in
         run_claimed p thunk;
         let dt = now () -. t0 in
         busy := !busy +. dt;
         Obs.Metrics.observe m_run dt
       | `Run thunk -> run_claimed p thunk
       | `Skip -> ());
      loop ()
    end
  in
  loop ();
  if Obs.enabled () then Obs.Metrics.observe m_busy !busy

let create ?queue_cap ~jobs () =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let cap = Option.value queue_cap ~default:(max 64 (4 * jobs)) in
  if cap < 1 then invalid_arg "Pool.create: queue_cap must be >= 1";
  let t =
    {
      mutex = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      queue = Queue.create ();
      cap;
      closed = false;
      workers = [];
    }
  in
  t.workers <- List.init jobs (fun _ -> Domain.spawn (worker t));
  t

let submit t ?timeout_s thunk =
  let submitted_at = now () in
  let p =
    {
      p_mutex = Mutex.create ();
      p_settled = Condition.create ();
      submitted_at;
      deadline = Option.map (fun s -> submitted_at +. s) timeout_s;
      cancelled = false;
      state = Queued thunk;
    }
  in
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  while Queue.length t.queue >= t.cap && not t.closed do
    Condition.wait t.not_full t.mutex
  done;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push p t.queue;
  let depth = Queue.length t.queue in
  Condition.signal t.not_empty;
  Mutex.unlock t.mutex;
  Obs.Metrics.incr m_jobs;
  Obs.Metrics.set_max m_queue_depth (float_of_int depth);
  p

let cancel p =
  Mutex.lock p.p_mutex;
  p.cancelled <- true;
  (match p.state with
   | Queued _ ->
     p.state <- Settled (Error Cancelled);
     Condition.broadcast p.p_settled
   | Running | Settled _ -> ());
  Mutex.unlock p.p_mutex

let await p =
  Mutex.lock p.p_mutex;
  let rec wait () =
    match p.state with
    | Settled r -> r
    | Queued _ | Running ->
      Condition.wait p.p_settled p.p_mutex;
      wait ()
  in
  let r = wait () in
  Mutex.unlock p.p_mutex;
  r

let shutdown t =
  Mutex.lock t.mutex;
  let workers = t.workers in
  t.closed <- true;
  t.workers <- [];
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  Mutex.unlock t.mutex;
  List.iter Domain.join workers

(* Inline execution with the same isolation/timeout semantics as a worker,
   for the sequential path. *)
let run_inline ?timeout_s thunk =
  Obs.Metrics.incr m_jobs;
  let t0 = now () in
  let result =
    match thunk () with
    | v -> Ok v
    | exception e ->
      let backtrace = Printexc.get_backtrace () in
      Error (Exn { exn = Printexc.to_string e; backtrace })
  in
  if Obs.enabled () then Obs.Metrics.observe m_run (now () -. t0);
  match (result, timeout_s) with
  | Ok _, Some s when now () -. t0 > s -> Error (Timeout (now () -. t0))
  | r, _ -> r

let map ?(jobs = 1) ?queue_cap ?timeout_s f xs =
  if jobs <= 1 then List.map (fun x -> run_inline ?timeout_s (fun () -> f x)) xs
  else begin
    let t = create ?queue_cap ~jobs:(min jobs (List.length xs |> max 1)) () in
    (* submit blocks while the queue is at capacity; workers drain it, so
       submission always makes progress. *)
    let promises = List.map (fun x -> submit t ?timeout_s (fun () -> f x)) xs in
    let results = List.map await promises in
    shutdown t;
    results
  end

let map_retry ?jobs ?timeout_s ~retries ~backoff_s f xs =
  let xs = Array.of_list xs in
  let results = Array.of_list (map ?jobs ?timeout_s f (Array.to_list xs)) in
  let rerun = ref 0 in
  let rec wave n =
    let failed =
      List.filter
        (fun i -> Result.is_error results.(i))
        (List.init (Array.length xs) Fun.id)
    in
    if failed <> [] && n < retries then begin
      Unix.sleepf (backoff_s *. (2.0 ** float_of_int n));
      rerun := !rerun + List.length failed;
      List.iter2
        (fun i r -> results.(i) <- r)
        failed
        (map ?jobs ?timeout_s f (List.map (fun i -> xs.(i)) failed));
      wave (n + 1)
    end
  in
  wave 0;
  (Array.to_list results, !rerun)
