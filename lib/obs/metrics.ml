(* Process-wide metrics registry.

   Every metric is an [int Atomic.t], so updates are lock-free and safe
   from any domain; only registration takes the registry mutex. Counters
   add, gauges keep a high-water mark through a compare-and-set loop.
   Registration is get-or-create by name, so instrumented modules can
   hold a handle created at module initialization and [reset] zeroes
   values in place without invalidating those handles. *)

type counter = int Atomic.t

type gauge = int Atomic.t

type metric = Counter of counter | Gauge of gauge

let mutex = Mutex.create ()

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let get_or_create name make cast describe =
  Mutex.lock mutex;
  let m =
    match Hashtbl.find_opt registry name with
    | Some m -> m
    | None ->
      let m = make () in
      Hashtbl.add registry name m;
      m
  in
  Mutex.unlock mutex;
  match cast m with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Obs.Metrics: %s is already registered as a %s" name
         describe)

let counter name =
  get_or_create name
    (fun () -> Counter (Atomic.make 0))
    (function Counter c -> Some c | _ -> None)
    "non-counter"

let gauge name =
  get_or_create name
    (fun () -> Gauge (Atomic.make 0))
    (function Gauge g -> Some g | _ -> None)
    "non-gauge"

let incr ?(by = 1) c = if Ctl.on () then ignore (Atomic.fetch_and_add c by)

let counter_value c = Atomic.get c

let set_max g v =
  if Ctl.on () then begin
    let rec raise_to () =
      let cur = Atomic.get g in
      if v > cur && not (Atomic.compare_and_set g cur v) then raise_to ()
    in
    raise_to ()
  end

type snapshot = Counter_v of int | Gauge_v of int

let snapshot () =
  Mutex.lock mutex;
  let entries =
    Hashtbl.fold
      (fun name m acc ->
        let s =
          match m with
          | Counter c -> Counter_v (Atomic.get c)
          | Gauge g -> Gauge_v (Atomic.get g)
        in
        (name, s) :: acc)
      registry []
  in
  Mutex.unlock mutex;
  List.sort (fun (a, _) (b, _) -> String.compare a b) entries

let reset () =
  Mutex.lock mutex;
  Hashtbl.iter (fun _ (Counter a | Gauge a) -> Atomic.set a 0) registry;
  Mutex.unlock mutex

let kind_value = function
  | Counter_v v -> ("counter", v)
  | Gauge_v v -> ("gauge", v)

(* Rendering: zero-valued metrics are kept — a counter stuck at 0 (e.g.
   fault.failed) is information, and a fixed row set keeps diffs of
   two runs alignable. *)

let to_table () =
  let rows =
    List.map
      (fun (name, s) ->
        let kind, v = kind_value s in
        [ name; kind; string_of_int v ])
      (snapshot ())
  in
  Report.Table.render
    ~align:[ Report.Table.Left; Report.Table.Left; Report.Table.Right ]
    ~header:[ "metric"; "kind"; "value" ]
    rows

let to_json () =
  let open Report.Json in
  Obj
    (List.map
       (fun (name, s) ->
         let kind, v = kind_value s in
         (name, Obj [ ("kind", String kind); ("value", Int v) ]))
       (snapshot ()))
