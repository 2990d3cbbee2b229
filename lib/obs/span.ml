type value = Int of int | Float of float | Str of string | Bool of bool

type finished = {
  name : string;
  start_us : float;
  dur_us : float;
  depth : int;
  tid : int;
  args : (string * value) list;
}

(* An open span lives on its domain's stack until the thunk returns. *)
type open_span = {
  o_name : string;
  o_start : float;
  o_depth : int;
  mutable o_args : (string * value) list;
}

(* Each domain keeps its own stack, so spans opened by pool workers nest
   within that worker's spans only — no cross-domain locking on the hot
   open/close path. Completed spans from every domain funnel into one
   mutex-protected list. *)
let stack_key : open_span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let finished_mutex = Mutex.create ()

let finished : finished list ref = ref []

let count = ref 0

(* Spans are a diagnostic aid; an unbounded accumulator must not turn a
   long campaign into an OOM. Past the cap new spans are dropped (counted
   nowhere — the trace is truncated, which the emit notes via [dropped]). *)
let cap = 1_000_000

let dropped = ref 0

let record f =
  Mutex.lock finished_mutex;
  if !count >= cap then incr dropped
  else begin
    finished := f :: !finished;
    incr count
  end;
  Mutex.unlock finished_mutex

let with_span ?(args = []) name f =
  if not (Ctl.on ()) then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let sp =
      {
        o_name = name;
        o_start = Ctl.now_us ();
        o_depth = List.length !stack;
        (* Kept newest-first; reversed once at close. *)
        o_args = List.rev args;
      }
    in
    stack := sp :: !stack;
    let close () =
      (match !stack with
       | top :: rest when top == sp -> stack := rest
       | _ ->
         (* A child span escaped its parent's dynamic extent; drop down to
            (and including) this span so the stack stays consistent. *)
         let rec pop = function
           | top :: rest when top != sp -> pop rest
           | _ :: rest -> rest
           | [] -> []
         in
         stack := pop !stack);
      record
        {
          name = sp.o_name;
          start_us = sp.o_start;
          dur_us = Ctl.now_us () -. sp.o_start;
          depth = sp.o_depth;
          tid = (Domain.self () :> int);
          args = List.rev sp.o_args;
        }
    in
    Fun.protect ~finally:close f
  end

let add_args args =
  if Ctl.on () then begin
    match !(Domain.DLS.get stack_key) with
    | [] -> ()
    | sp :: _ -> sp.o_args <- List.rev_append args sp.o_args
  end

let completed () =
  Mutex.lock finished_mutex;
  let spans = List.rev !finished in
  Mutex.unlock finished_mutex;
  spans

let dropped_count () =
  Mutex.lock finished_mutex;
  let d = !dropped in
  Mutex.unlock finished_mutex;
  d

type total = { count : int; total_s : float; self_s : float }

(* Spans complete children-first within a domain, so a child-time
   accumulator per (domain, depth) holds exactly a span's direct children
   when it closes; reading it also clears it for the next sibling. *)
let totals spans =
  let child = Hashtbl.create 16 and acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let below = (s.tid, s.depth + 1) in
      let covered = Option.value ~default:0.0 (Hashtbl.find_opt child below) in
      Hashtbl.remove child below;
      let here = (s.tid, s.depth) in
      Hashtbl.replace child here
        (s.dur_us +. Option.value ~default:0.0 (Hashtbl.find_opt child here));
      let t =
        Option.value (Hashtbl.find_opt acc s.name)
          ~default:{ count = 0; total_s = 0.0; self_s = 0.0 }
      in
      Hashtbl.replace acc s.name
        { count = t.count + 1;
          total_s = t.total_s +. (s.dur_us /. 1e6);
          self_s = t.self_s +. ((s.dur_us -. covered) /. 1e6) })
    spans;
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun name t rows -> (name, t) :: rows) acc [])

let to_table () =
  Report.Table.render
    ~header:[ "span"; "count"; "total s"; "self s" ]
    (List.map
       (fun (name, t) ->
         [ name; string_of_int t.count; Printf.sprintf "%.3f" t.total_s;
           Printf.sprintf "%.3f" t.self_s ])
       (totals (completed ())))

let to_json () =
  let open Report.Json in
  Obj
    (List.map
       (fun (name, t) ->
         ( name,
           Obj
             [ ("count", Int t.count); ("total_s", Float t.total_s);
               ("self_s", Float t.self_s) ] ))
       (totals (completed ())))

let reset () =
  Mutex.lock finished_mutex;
  finished := [];
  count := 0;
  dropped := 0;
  Mutex.unlock finished_mutex
