let lanes = Sys.int_size

let all_lanes = -1

let replicate b = if b then all_lanes else 0

let random_word st =
  let rec go acc k =
    if k >= lanes then acc
    else go (acc lor (Random.State.bits st lsl k)) (k + 30)
  in
  go 0 0

let ctz w =
  if w = 0 then invalid_arg "Compiled.ctz: zero word";
  let n = ref 0 and w = ref w in
  if !w land 0xFFFFFFFF = 0 then begin n := !n + 32; w := !w lsr 32 end;
  if !w land 0xFFFF = 0 then begin n := !n + 16; w := !w lsr 16 end;
  if !w land 0xFF = 0 then begin n := !n + 8; w := !w lsr 8 end;
  if !w land 0xF = 0 then begin n := !n + 4; w := !w lsr 4 end;
  if !w land 0x3 = 0 then begin n := !n + 2; w := !w lsr 2 end;
  if !w land 0x1 = 0 then n := !n + 1;
  !n

type t = {
  n : int;
  sched : int array;       (* And node ids, ascending = topological *)
  fan0 : int array;        (* fanin literals, indexed like [sched] *)
  fan1 : int array;
  pi_nodes : int array;
  pi_names : string array;
  pi_slot : (string, int) Hashtbl.t;
  latch_nodes : int array;
  slot_of : int array;     (* node id -> latch slot, -1 for non-latches *)
  latch_init : int array;  (* init bit replicated across lanes *)
  latch_next : int array;  (* next-state literals *)
  po_names : string array;
  po_lits : int array;
}

let compile g =
  let n = Graph.num_nodes g in
  let pi_nodes = Array.of_list (Graph.pis g) in
  let pi_names = Array.map (Graph.pi_name g) pi_nodes in
  let pi_slot = Hashtbl.create (Array.length pi_nodes) in
  Array.iteri (fun i name -> Hashtbl.replace pi_slot name i) pi_names;
  let latch_nodes = Array.of_list (Graph.latches g) in
  let slot_of = Array.make n (-1) in
  Array.iteri (fun j id -> slot_of.(id) <- j) latch_nodes;
  let latch_init =
    Array.map
      (fun id ->
        let _, init, _, _ = Graph.latch_info g id in
        replicate init)
      latch_nodes
  in
  let latch_next =
    Array.map (fun id -> (Graph.latch_next g id :> int)) latch_nodes
  in
  let pos = Array.of_list (Graph.pos g) in
  let po_names = Array.map fst pos in
  let po_lits = Array.map (fun (_, l) -> ((l : Graph.lit) :> int)) pos in
  let n_ands = Graph.num_ands g in
  let sched = Array.make (max n_ands 1) 0 in
  let fan0 = Array.make (max n_ands 1) 0 in
  let fan1 = Array.make (max n_ands 1) 0 in
  let k = ref 0 in
  for id = 1 to n - 1 do
    if Graph.kind g id = Graph.And then begin
      let f0, f1 = Graph.fanins g id in
      sched.(!k) <- id;
      fan0.(!k) <- (f0 :> int);
      fan1.(!k) <- (f1 :> int);
      incr k
    end
  done;
  assert (!k = n_ands);
  {
    n;
    sched = Array.sub sched 0 n_ands;
    fan0 = Array.sub fan0 0 n_ands;
    fan1 = Array.sub fan1 0 n_ands;
    pi_nodes;
    pi_names;
    pi_slot;
    latch_nodes;
    slot_of;
    latch_init;
    latch_next;
    po_names;
    po_lits;
  }

let num_pis c = Array.length c.pi_nodes
let num_latches c = Array.length c.latch_nodes
let num_pos c = Array.length c.po_lits
let num_ands c = Array.length c.sched
let pi_index c name = Hashtbl.find_opt c.pi_slot name
let pi_name c i = c.pi_names.(i)
let po_name c k = c.po_names.(k)

let latch_slot c id =
  if id < 0 || id >= c.n || c.slot_of.(id) < 0 then None
  else Some c.slot_of.(id)

type sim = {
  c : t;
  values : int array;      (* one packed word per node; node 0 = const 0 *)
  state : int array;       (* per latch slot *)
  next_buf : int array;
  po_words : int array;
  force_set : int array;   (* per node *)
  force_clear : int array;
  mutable forced : bool;
  mutable nsteps : int;
}

let reset s = Array.blit s.c.latch_init 0 s.state 0 (Array.length s.state)

let sim c =
  let s =
    {
      c;
      values = Array.make c.n 0;
      state = Array.make (Array.length c.latch_nodes) 0;
      next_buf = Array.make (Array.length c.latch_nodes) 0;
      po_words = Array.make (Array.length c.po_lits) 0;
      force_set = Array.make c.n 0;
      force_clear = Array.make c.n 0;
      forced = false;
      nsteps = 0;
    }
  in
  reset s;
  s

let add_force s ~node ~set ~clear =
  if node < 0 || node >= s.c.n then invalid_arg "Compiled.add_force: bad node";
  s.force_set.(node) <- s.force_set.(node) lor set;
  s.force_clear.(node) <- s.force_clear.(node) lor clear;
  s.forced <- true

let clear_forces s =
  if s.forced then begin
    Array.fill s.force_set 0 s.c.n 0;
    Array.fill s.force_clear 0 s.c.n 0;
    s.forced <- false
  end

let set_pi s slot w = s.values.(s.c.pi_nodes.(slot)) <- w
let set_latch s slot w = s.state.(slot) <- w

let[@inline] word values l =
  let w = Array.unsafe_get values (l lsr 1) in
  if l land 1 = 1 then lnot w else w

let step s =
  let c = s.c in
  let values = s.values in
  (* Load latch state words into their node slots. *)
  let nl = Array.length c.latch_nodes in
  for j = 0 to nl - 1 do
    values.(c.latch_nodes.(j)) <- s.state.(j)
  done;
  (* Evaluate the And schedule. The unforced loop is the hot path: two
     loads, two conditional complements, one AND, one store per node. *)
  let n_ands = Array.length c.sched in
  if not s.forced then
    for i = 0 to n_ands - 1 do
      let a = word values (Array.unsafe_get c.fan0 i) in
      let b = word values (Array.unsafe_get c.fan1 i) in
      Array.unsafe_set values (Array.unsafe_get c.sched i) (a land b)
    done
  else begin
    (* Forced variant: PI and latch loads honour the masks too, so a
       force on any node kind behaves uniformly. *)
    let apply id v =
      (v lor s.force_set.(id)) land lnot s.force_clear.(id)
    in
    for j = 0 to nl - 1 do
      let id = c.latch_nodes.(j) in
      values.(id) <- apply id values.(id)
    done;
    let np = Array.length c.pi_nodes in
    for i = 0 to np - 1 do
      let id = c.pi_nodes.(i) in
      values.(id) <- apply id values.(id)
    done;
    for i = 0 to n_ands - 1 do
      let id = Array.unsafe_get c.sched i in
      let a = word values (Array.unsafe_get c.fan0 i) in
      let b = word values (Array.unsafe_get c.fan1 i) in
      Array.unsafe_set values id (apply id (a land b))
    done
  end;
  (* Capture POs, then advance latches (via a buffer: a latch's next-state
     literal may read another latch's current value). *)
  for k = 0 to Array.length c.po_lits - 1 do
    s.po_words.(k) <- word values c.po_lits.(k)
  done;
  for j = 0 to nl - 1 do
    s.next_buf.(j) <- word values c.latch_next.(j)
  done;
  Array.blit s.next_buf 0 s.state 0 nl;
  s.nsteps <- s.nsteps + 1

let po s k = s.po_words.(k)
let node_value s id = s.values.(id)
let steps s = s.nsteps

let run s ~cycles ~input =
  let np = num_pis s.c and no = num_pos s.c in
  Array.init cycles (fun cycle ->
      for i = 0 to np - 1 do
        set_pi s i (replicate (input cycle i))
      done;
      step s;
      Array.init no (fun k -> s.po_words.(k) land 1 = 1))

let with_metrics ~active_lanes s f =
  if not (Obs.enabled ()) then f ()
  else
    Obs.Span.with_span
      ~args:
        [
          ("ands", Obs.Span.Int (num_ands s.c));
          ("lanes", Obs.Span.Int active_lanes);
        ]
      "aig.sim"
    @@ fun () ->
    let steps0 = s.nsteps in
    Fun.protect f ~finally:(fun () ->
        let cycles = s.nsteps - steps0 in
        Obs.Metrics.incr
          ~by:(cycles * active_lanes)
          (Obs.Metrics.counter "aig.sim.patterns");
        Obs.Metrics.incr
          ~by:(cycles * num_ands s.c)
          (Obs.Metrics.counter "aig.sim.words_evaluated");
        Obs.Span.add_args [ ("cycles", Obs.Span.Int cycles) ])
