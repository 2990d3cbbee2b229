module Fingerprint = Fingerprint
module Summary = Summary
module Pool = Pool
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
  wall_s : float;
  cpu_s : float;
}

(* The on-disk store: a cache dir no job or lookup has touched yet, the
   results journal before its first store, open after it, or off (no cache
   dir, [no_cache], or a disk failure). *)
type disk = Off | Dir of string | Closed of string | Open of Journal.t

(* What a job gives back. Its key is the area key plus [kind]; [encode]
   is [None] for a result that is kept in memory but not journaled. *)
type 'a product = {
  kind : string;
  memory : (string, 'a) Hashtbl.t;
  of_flow : Synth.Flow.result -> 'a;
  encode : 'a -> string option;
  decode : string -> ('a, string) result;
}

type t = {
  lib : Cells.Library.t;
  jobs : int;
  no_cache : bool;
  areas : Summary.t product;
  netlists : Synth.Flow.result product;
  loaded : (string, string) Hashtbl.t;
  errors : (string, Pool.error) Hashtbl.t;  (* failed keys; never journaled *)
  mutable disk : disk;
  memo : Synth.Collapse.memo;
  mutable submitted : int;
  mutable executed : int;
  mutable failed : int;
  mutable disk_hits : int;
  mutable wall_s : float;
  mutable cpu_s : float;
  mutable failures : string list;  (* newest first *)
}

(* Process-wide cache metrics, aggregated across engines. *)
let m_mem_hits = Obs.Metrics.counter "engine.cache.mem_hits"
let m_disk_hits = Obs.Metrics.counter "engine.cache.disk_hits"
let m_misses = Obs.Metrics.counter "engine.cache.misses"
let m_stores = Obs.Metrics.counter "engine.cache.stores"

(* A netlist record is AIGER text; the mapping is a pure function of the
   graph, so it is rebuilt rather than stored. *)
let netlist_product lib =
  let decode text =
    match Synth.Aiger.read text with
    | aig ->
      let report, instances = Synth.Map.run_full lib aig in
      Ok { Synth.Flow.aig; report; instances }
    | exception Synth.Aiger.Parse_error (_, m) -> Error m
  in
  { kind = " netlist"; memory = Hashtbl.create 8; of_flow = Fun.id; decode;
    encode = (fun (r : Synth.Flow.result) ->
      if Synth.Aiger.ordered r.aig then Some (Synth.Aiger.write r.aig) else None) }

let rec mkdir_p path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error _ -> ()
  end

let create ?(jobs = 1) ?cache_dir ?(no_cache = false) lib =
  if jobs < 1 then invalid_arg "Engine.create: jobs must be >= 1";
  let disk =
    match cache_dir with
    | Some dir when not no_cache ->
      (* A cache dir that is not a directory would otherwise degrade to
         silent store failures and a permanently cold cache. *)
      if Sys.file_exists dir && not (Sys.is_directory dir) then
        invalid_arg
          (Printf.sprintf "Engine.create: %s is not a directory" dir);
      Dir dir
    | _ -> Off
  in
  { lib; jobs; no_cache;
    areas =
      { kind = ""; memory = Hashtbl.create 64; of_flow = Summary.of_flow;
        encode = (fun s -> Some (Summary.to_string s));
        decode = Summary.of_string };
    netlists = netlist_product lib; loaded = Hashtbl.create 64;
    errors = Hashtbl.create 8; disk;
    memo = Synth.Collapse.create_memo (); submitted = 0; executed = 0;
    failed = 0; disk_hits = 0; wall_s = 0.0; cpu_s = 0.0; failures = [] }

(* The first job or lookup creates the cache dir and loads its journal,
   undecoded, a key's payloads in file order. A dir that cannot be created
   turns the store off, like any other disk failure. *)
let open_dir t =
  match t.disk with
  | Dir dir ->
    mkdir_p dir;
    if Sys.file_exists dir && Sys.is_directory dir then begin
      let path = Filename.concat dir "results.jsonl" in
      List.iter
        (fun (e : Journal.entry) -> Hashtbl.add t.loaded e.key e.value)
        (List.rev (try Journal.load path with Sys_error _ -> []));
      t.disk <- Closed path
    end
    else t.disk <- Off
  | Off | Closed _ | Open _ -> ()

(* A disk failure turns the store off: the engine carries on memory-only. *)
let rec persist t key value =
  match t.disk with
  | Off | Dir _ -> ()
  | Closed path ->
    t.disk <- (try Open (Journal.open_append path) with Sys_error _ -> Off);
    persist t key value
  | Open j ->
    (try Journal.append j ~key ~value with Sys_error _ -> t.disk <- Off)

(* Memory first; a key's journal records are decoded when it is first
   asked for, and the one {!Batch.first_good} picks serves it once, as a
   disk hit, and lives in memory from then on. *)
let find t p key =
  match Hashtbl.find_opt p.memory key with
  | Some v ->
    Obs.Metrics.incr m_mem_hits;
    Some v
  | None ->
    (match Batch.first_good ~decode:p.decode (Hashtbl.find_all t.loaded key) with
     | Some v ->
       Hashtbl.replace p.memory key v;
       t.disk_hits <- t.disk_hits + 1;
       Obs.Metrics.incr m_disk_hits;
       Some v
     | None ->
       Obs.Metrics.incr m_misses;
       None)

let store t p key v =
  Hashtbl.replace p.memory key v;
  Obs.Metrics.incr m_stores;
  Option.iter (persist t key) (p.encode v)

let now () = Unix.gettimeofday ()

let failure_message j e =
  Printf.sprintf "synthesis job %s failed: %s" j.jname (Pool.error_message e)

(* A job neither settled in the cache nor coalesced with an earlier one
   compiles; its product comes back with the compile's own time. A failed
   key is remembered in memory, so a repeat request gets the same [Error]
   as a memory hit and is listed in {!failures} once. *)
let submit t p jobs =
  if jobs <> [] then open_dir t;
  let t0 = now () in
  t.submitted <- t.submitted + List.length jobs;
  let settled key =
    if t.no_cache then None
    else
      match Hashtbl.find_opt t.errors key with
      | Some e ->
        Obs.Metrics.incr m_mem_hits;
        Some (Error e)
      | None -> Option.map (fun v -> Ok (v, 0.0)) (find t p key)
  in
  let settle key j r =
    t.executed <- t.executed + 1;
    match r with
    | Ok (v, dt) ->
      t.cpu_s <- t.cpu_s +. dt;
      if not t.no_cache then store t p key v
    | Error e ->
      t.failed <- t.failed + 1;
      t.failures <- failure_message j e :: t.failures;
      if not t.no_cache then Hashtbl.replace t.errors key e
  in
  let compile j =
    Obs.Span.with_span ~args:[ ("job", Obs.Span.Str j.jname) ] "engine.job"
    @@ fun () ->
    let jt0 = now () in
    let r = Synth.Flow.compile ~options:j.options ~memo:t.memo t.lib j.design in
    (p.of_flow r, now () -. jt0)
  in
  let outcomes =
    Batch.map ~jobs:t.jobs
      ~key:(fun j ->
        Fingerprint.job ~lib:t.lib ~options:j.options j.design ^ p.kind)
      ~settled ~settle compile jobs
  in
  t.wall_s <- t.wall_s +. (now () -. t0);
  List.map (Result.map fst) outcomes

let run t jobs = submit t t.areas jobs
let netlists t jobs = submit t t.netlists jobs

let failures t = List.rev t.failures

let jobs t = t.jobs

(* Keyed clients share the journal but not the books. With no record
   loaded or stored there is nothing to find: the key is not forced. *)
let lookup t ~decode key =
  open_dir t;
  if Hashtbl.length t.loaded = 0 then None
  else Batch.first_good ~decode (Hashtbl.find_all t.loaded (Lazy.force key))

let append t key value =
  open_dir t;
  match t.disk with
  | Off -> ()
  | Dir _ | Closed _ | Open _ ->
    let key = Lazy.force key in
    Hashtbl.add t.loaded key value;
    persist t key value

(* Every submitted job compiled, came from disk, or came from memory (an
   earlier batch or an earlier duplicate in its own batch). *)
let stats t =
  { submitted = t.submitted; executed = t.executed; failed = t.failed;
    mem_hits = t.submitted - t.executed - t.disk_hits;
    disk_hits = t.disk_hits; wall_s = t.wall_s; cpu_s = t.cpu_s }

let stats_table (s : stats) =
  let f = Printf.sprintf "%.3f" in
  Report.Table.render
    ~align:[ Report.Table.Left; Report.Table.Right ]
    ~header:[ "engine"; "value" ]
    [
      [ "jobs submitted"; string_of_int s.submitted ];
      [ "cache hits (memory)"; string_of_int s.mem_hits ];
      [ "cache hits (disk)"; string_of_int s.disk_hits ];
      [ "jobs executed"; string_of_int s.executed ];
      [ "jobs failed"; string_of_int s.failed ];
      [ "wall time (s)"; f s.wall_s ];
      [ "cpu time (s)"; f s.cpu_s ];
      [ "parallel speedup";
        (if s.wall_s > 0.0 then Printf.sprintf "%.2fx" (s.cpu_s /. s.wall_s)
         else "-") ];
    ]
