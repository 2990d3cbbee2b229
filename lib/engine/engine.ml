module Fingerprint = Fingerprint
module Summary = Summary
module Pool = Pool
module Cache = Cache
module Journal = Journal
module Batch = Batch

type job = {
  jname : string;
  design : Rtl.Design.t;
  options : Synth.Flow.options;
}

let job ?(options = Synth.Flow.default) design =
  { jname = design.Rtl.Design.name; design; options }

type outcome = (Summary.t, Pool.error) result

type stats = {
  submitted : int;
  executed : int;
  failed : int;
  mem_hits : int;
  disk_hits : int;
  quarantined : int;
  wall_s : float;
  cpu_s : float;
}

type t = {
  lib : Cells.Library.t;
  jobs : int;
  cache : Cache.t option;
  memo : Synth.Collapse.memo;
  mutable submitted : int;
  mutable executed : int;
  mutable failed : int;
  mutable disk_hits : int;
  mutable wall_s : float;
  mutable cpu_s : float;
}

let create ?(jobs = 1) ?cache_dir ?(no_cache = false) lib =
  if jobs < 1 then invalid_arg "Engine.create: jobs must be >= 1";
  let cache = if no_cache then None else Some (Cache.create ?dir:cache_dir ()) in
  { lib; jobs; cache; memo = Synth.Collapse.create_memo (); submitted = 0;
    executed = 0; failed = 0; disk_hits = 0; wall_s = 0.0; cpu_s = 0.0 }

let now () = Unix.gettimeofday ()

(* A job neither settled in the cache nor coalesced with an earlier one
   compiles; its summary comes back with the compile's own time. *)
let run t jobs =
  let t0 = now () in
  t.submitted <- t.submitted + List.length jobs;
  let settled key =
    match Option.bind t.cache (fun c -> Cache.find c key) with
    | Some (s, where) ->
      if where = `Disk then t.disk_hits <- t.disk_hits + 1;
      Some (s, 0.0)
    | None -> None
  in
  let settle key r =
    t.executed <- t.executed + 1;
    match r with
    | Ok (s, dt) ->
      t.cpu_s <- t.cpu_s +. dt;
      Option.iter (fun c -> Cache.store c key s) t.cache
    | Error _ -> t.failed <- t.failed + 1
  in
  let compile j =
    let jt0 = now () in
    let r = Synth.Flow.compile ~options:j.options ~memo:t.memo t.lib j.design in
    (Summary.of_flow r, now () -. jt0)
  in
  let outcomes =
    Batch.map ~jobs:t.jobs
      ~key:(fun j -> Fingerprint.job ~lib:t.lib ~options:j.options j.design)
      ~settled ~settle compile jobs
  in
  t.wall_s <- t.wall_s +. (now () -. t0);
  List.map (Result.map fst) outcomes

let run_one t j = List.hd (run t [ j ])

let report_exn t j =
  match run_one t j with
  | Ok s -> s.Summary.report
  | Error e ->
    failwith
      (Printf.sprintf "synthesis job %s failed: %s" j.jname
         (Pool.error_message e))

(* Every submitted job compiled, came from disk, or came from memory (an
   earlier batch or an earlier duplicate in its own batch). *)
let stats t =
  { submitted = t.submitted; executed = t.executed; failed = t.failed;
    mem_hits = t.submitted - t.executed - t.disk_hits;
    disk_hits = t.disk_hits;
    quarantined = Option.fold ~none:0 ~some:Cache.quarantined t.cache;
    wall_s = t.wall_s; cpu_s = t.cpu_s }

let stats_table (s : stats) =
  let f = Printf.sprintf "%.3f" in
  Report.Table.render
    ~align:[ Report.Table.Left; Report.Table.Right ]
    ~header:[ "engine"; "value" ]
    [
      [ "jobs submitted"; string_of_int s.submitted ];
      [ "cache hits (memory)"; string_of_int s.mem_hits ];
      [ "cache hits (disk)"; string_of_int s.disk_hits ];
      [ "cache entries quarantined"; string_of_int s.quarantined ];
      [ "jobs executed"; string_of_int s.executed ];
      [ "jobs failed"; string_of_int s.failed ];
      [ "wall time (s)"; f s.wall_s ];
      [ "cpu time (s)"; f s.cpu_s ];
      [ "parallel speedup";
        (if s.wall_s > 0.0 then Printf.sprintf "%.2fx" (s.cpu_s /. s.wall_s)
         else "-") ];
    ]

let the_default = ref None

let set_default t = the_default := Some t

let default () =
  match !the_default with
  | Some t -> t
  | None ->
    let t = create ~jobs:1 Cells.Library.vt90 in
    set_default t;
    t
