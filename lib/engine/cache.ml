type t = {
  table : (string, Summary.t) Hashtbl.t;
  dir : string option;
  mutable quarantined : int;
}

(* Process-wide cache metrics, aggregated across cache instances. *)
let m_mem_hits = Obs.Metrics.counter "engine.cache.mem_hits"
let m_disk_hits = Obs.Metrics.counter "engine.cache.disk_hits"
let m_misses = Obs.Metrics.counter "engine.cache.misses"
let m_stores = Obs.Metrics.counter "engine.cache.stores"
let m_quarantined = Obs.Metrics.counter "engine.cache.quarantined"

let rec mkdir_p path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?dir () =
  Option.iter
    (fun d ->
      mkdir_p d;
      (* A cache dir that exists but is not a directory would otherwise
         degrade to silent store failures and a permanently cold cache. *)
      if not (Sys.is_directory d) then
        invalid_arg
          (Printf.sprintf "Engine.Cache.create: %s is not a directory" d))
    dir;
  { table = Hashtbl.create 64; dir; quarantined = 0 }

let entry_path dir key = Filename.concat dir (key ^ ".json")

let quarantine_path dir key = Filename.concat dir (key ^ ".corrupt")

(* A corrupt entry left in place would be re-read (and missed) on every
   lookup forever; renaming it aside keeps the evidence for post-mortems
   while letting the next store repopulate the key. *)
let quarantine t dir key =
  (try Sys.rename (entry_path dir key) (quarantine_path dir key)
   with Sys_error _ -> ());
  t.quarantined <- t.quarantined + 1;
  Obs.Metrics.incr m_quarantined

let disk_find t dir key =
  let path = entry_path dir key in
  if not (Sys.file_exists path) then None
  else
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error _ -> None (* unreadable, not corrupt: plain miss *)
    | text ->
      (match Summary.of_string text with
       | Ok s -> Some s
       | Error _ ->
         quarantine t dir key;
         None)

let disk_store dir key summary =
  (* Atomic publish: unique temp file in the same directory, then rename. *)
  match
    Filename.temp_file ~temp_dir:dir ("." ^ key) ".tmp"
  with
  | exception Sys_error _ -> ()
  | tmp ->
    (try
       Out_channel.with_open_text tmp (fun oc ->
           Out_channel.output_string oc (Summary.to_string summary));
       Sys.rename tmp (entry_path dir key)
     with Sys_error _ -> (try Sys.remove tmp with Sys_error _ -> ()))

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some s ->
    Obs.Metrics.incr m_mem_hits;
    Some (s, `Memory)
  | None ->
    (match Option.bind t.dir (fun dir -> disk_find t dir key) with
     | Some s ->
       Hashtbl.replace t.table key s;
       Obs.Metrics.incr m_disk_hits;
       Some (s, `Disk)
     | None ->
       Obs.Metrics.incr m_misses;
       None)

let store t key summary =
  Hashtbl.replace t.table key summary;
  Obs.Metrics.incr m_stores;
  Option.iter (fun dir -> disk_store dir key summary) t.dir

let quarantined t = t.quarantined
