(* MiniSat-style CDCL. Internal literal encoding: variable v (1-based)
   yields literals 2v (positive) and 2v+1 (negative); [l lxor 1] negates.
   All per-variable and per-literal state lives in flat arrays grown
   geometrically by [new_var], so propagation touches no boxed data. *)

type ivec = { mutable a : int array; mutable n : int }

let ivec () = { a = Array.make 4 0; n = 0 }

let ipush v x =
  if v.n = Array.length v.a then begin
    let a = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 a 0 v.n;
    v.a <- a
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

type stats = {
  solves : int;
  decisions : int;
  conflicts : int;
  propagations : int;
  learned : int;
  learned_lits : int;
  restarts : int;
  max_vars : int;
  solve_s : float;
}

type t = {
  (* clause arena: learned and problem clauses share it; indices are
     stable because nothing is ever deleted. *)
  mutable clauses : int array array;
  mutable n_clauses : int;
  (* per-variable state, indexed 1..nvars *)
  mutable value : int array;  (* -1 unassigned / 0 false / 1 true *)
  mutable level : int array;
  mutable reason : int array;  (* clause index, -1 for decisions *)
  mutable activity : float array;
  mutable polarity : bool array;  (* saved phase *)
  mutable seen : bool array;
  mutable hpos : int array;  (* position in [heap], -1 if absent *)
  (* per-literal state, indexed by internal literal *)
  mutable watches : ivec array;
  (* trail *)
  mutable trail : int array;
  mutable trail_n : int;
  trail_lim : ivec;
  mutable qhead : int;
  (* decision heap (max-activity) *)
  heap : ivec;
  mutable var_inc : float;
  mutable nvars : int;
  mutable ok : bool;
  mutable model : bool array;
  mutable have_model : bool;
  (* statistics *)
  mutable st_solves : int;
  mutable st_decisions : int;
  mutable st_conflicts : int;
  mutable st_propagations : int;
  mutable st_learned : int;
  mutable st_learned_lits : int;
  mutable st_restarts : int;
  mutable st_solve_s : float;
}

let create () =
  {
    clauses = Array.make 16 [||];
    n_clauses = 0;
    value = Array.make 8 (-1);
    level = Array.make 8 0;
    reason = Array.make 8 (-1);
    activity = Array.make 8 0.0;
    polarity = Array.make 8 false;
    seen = Array.make 8 false;
    hpos = Array.make 8 (-1);
    watches = Array.init 16 (fun _ -> ivec ());
    trail = Array.make 8 0;
    trail_n = 0;
    trail_lim = ivec ();
    qhead = 0;
    heap = ivec ();
    var_inc = 1.0;
    nvars = 0;
    ok = true;
    model = [||];
    have_model = false;
    st_solves = 0;
    st_decisions = 0;
    st_conflicts = 0;
    st_propagations = 0;
    st_learned = 0;
    st_learned_lits = 0;
    st_restarts = 0;
    st_solve_s = 0.0;
  }

let ok s = s.ok

(* ------------------------------------------------------- decision heap *)

let heap_lt s u v = s.activity.(u) > s.activity.(v)

let rec heap_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_lt s s.heap.a.(i) s.heap.a.(p) then begin
      let x = s.heap.a.(i) in
      s.heap.a.(i) <- s.heap.a.(p);
      s.heap.a.(p) <- x;
      s.hpos.(s.heap.a.(i)) <- i;
      s.hpos.(s.heap.a.(p)) <- p;
      heap_up s p
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap.n && heap_lt s s.heap.a.(l) s.heap.a.(!best) then best := l;
  if r < s.heap.n && heap_lt s s.heap.a.(r) s.heap.a.(!best) then best := r;
  if !best <> i then begin
    let x = s.heap.a.(i) in
    s.heap.a.(i) <- s.heap.a.(!best);
    s.heap.a.(!best) <- x;
    s.hpos.(s.heap.a.(i)) <- i;
    s.hpos.(s.heap.a.(!best)) <- !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.hpos.(v) < 0 then begin
    ipush s.heap v;
    s.hpos.(v) <- s.heap.n - 1;
    heap_up s (s.heap.n - 1)
  end

let heap_pop s =
  let top = s.heap.a.(0) in
  s.heap.n <- s.heap.n - 1;
  s.hpos.(top) <- -1;
  if s.heap.n > 0 then begin
    s.heap.a.(0) <- s.heap.a.(s.heap.n);
    s.hpos.(s.heap.a.(0)) <- 0;
    heap_down s 0
  end;
  top

(* ----------------------------------------------------------- variables *)

let grow_vars s want =
  let cap = Array.length s.value in
  if want >= cap then begin
    let ncap = max (2 * cap) (want + 1) in
    let gi a d =
      let b = Array.make ncap d in
      Array.blit a 0 b 0 cap;
      b
    in
    s.value <- gi s.value (-1);
    s.level <- gi s.level 0;
    s.reason <- gi s.reason (-1);
    s.polarity <- gi s.polarity false;
    s.seen <- gi s.seen false;
    s.hpos <- gi s.hpos (-1);
    let act = Array.make ncap 0.0 in
    Array.blit s.activity 0 act 0 cap;
    s.activity <- act;
    let nw = Array.init (2 * ncap) (fun _ -> ivec ()) in
    Array.blit s.watches 0 nw 0 (Array.length s.watches);
    s.watches <- nw;
    let tr = Array.make ncap 0 in
    Array.blit s.trail 0 tr 0 s.trail_n;
    s.trail <- tr
  end

let new_var s =
  let v = s.nvars + 1 in
  grow_vars s v;
  s.nvars <- v;
  heap_insert s v;
  v

let ilit l =
  if l > 0 then 2 * l
  else if l < 0 then (2 * -l) + 1
  else invalid_arg "Sat.Solver: literal 0"

let check_lit s l =
  let v = abs l in
  if v = 0 || v > s.nvars then
    invalid_arg (Printf.sprintf "Sat.Solver: unknown literal %d" l)

(* value of an internal literal: -1 / 0 / 1 *)
let lit_value s l =
  let v = s.value.(l lsr 1) in
  if v < 0 then -1 else v lxor (l land 1)

let decision_level s = s.trail_lim.n

let enqueue s l reason =
  let v = l lsr 1 in
  s.value.(v) <- (l land 1) lxor 1;
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.trail.(s.trail_n) <- l;
  s.trail_n <- s.trail_n + 1

(* --------------------------------------------------------- propagation *)

(* Returns the index of a conflicting clause, or -1. *)
let propagate s =
  let confl = ref (-1) in
  while !confl < 0 && s.qhead < s.trail_n do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    let false_lit = p lxor 1 in
    let ws = s.watches.(false_lit) in
    let i = ref 0 and j = ref 0 in
    while !i < ws.n do
      let ci = ws.a.(!i) in
      incr i;
      let lits = s.clauses.(ci) in
      (* make the false literal lits.(1) *)
      if lits.(0) = false_lit then begin
        lits.(0) <- lits.(1);
        lits.(1) <- false_lit
      end;
      if lit_value s lits.(0) = 1 then begin
        (* satisfied; keep the watch *)
        ws.a.(!j) <- ci;
        incr j
      end
      else begin
        (* look for a non-false literal to watch instead *)
        let len = Array.length lits in
        let k = ref 2 in
        while !k < len && lit_value s lits.(!k) = 0 do
          incr k
        done;
        if !k < len then begin
          lits.(1) <- lits.(!k);
          lits.(!k) <- false_lit;
          ipush s.watches.(lits.(1)) ci
        end
        else begin
          (* unit or conflicting; watch stays *)
          ws.a.(!j) <- ci;
          incr j;
          if lit_value s lits.(0) = 0 then begin
            confl := ci;
            (* copy the remaining watches back and stop *)
            while !i < ws.n do
              ws.a.(!j) <- ws.a.(!i);
              incr j;
              incr i
            done;
            s.qhead <- s.trail_n
          end
          else begin
            s.st_propagations <- s.st_propagations + 1;
            enqueue s lits.(0) ci
          end
        end
      end
    done;
    ws.n <- !j
  done;
  !confl

(* ------------------------------------------------------------ activity *)

let var_rescale s =
  for v = 1 to s.nvars do
    s.activity.(v) <- s.activity.(v) *. 1e-100
  done;
  s.var_inc <- s.var_inc *. 1e-100

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then var_rescale s;
  if s.hpos.(v) >= 0 then heap_up s s.hpos.(v)

let var_decay s = s.var_inc <- s.var_inc /. 0.95

(* --------------------------------------------------------- backtracking *)

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = s.trail_lim.a.(lvl) in
    for c = s.trail_n - 1 downto bound do
      let v = s.trail.(c) lsr 1 in
      s.polarity.(v) <- s.value.(v) = 1;
      s.value.(v) <- -1;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    s.trail_n <- bound;
    s.qhead <- bound;
    s.trail_lim.n <- lvl
  end

(* ----------------------------------------------------------- analysis *)

(* First-UIP learning. Returns the learned clause (asserting literal
   first, a literal of the backjump level second) and the backjump
   level. *)
let analyze s confl =
  let learnt = ivec () in
  ipush learnt 0 (* slot for the asserting literal *);
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let index = ref (s.trail_n - 1) in
  let continue = ref true in
  while !continue do
    let lits = s.clauses.(!confl) in
    let start = if !p < 0 then 0 else 1 in
    for k = start to Array.length lits - 1 do
      let q = lits.(k) in
      let v = q lsr 1 in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        var_bump s v;
        if s.level.(v) >= decision_level s then incr counter
        else ipush learnt q
      end
    done;
    (* next literal to resolve on *)
    while not s.seen.(s.trail.(!index) lsr 1) do
      decr index
    done;
    p := s.trail.(!index);
    decr index;
    s.seen.(!p lsr 1) <- false;
    decr counter;
    if !counter <= 0 then continue := false
    else confl := s.reason.(!p lsr 1)
  done;
  learnt.a.(0) <- !p lxor 1;
  (* backjump level = max level among the other literals; put one such
     literal at index 1 so it is watched. *)
  let btlevel = ref 0 in
  for k = 1 to learnt.n - 1 do
    let lv = s.level.(learnt.a.(k) lsr 1) in
    if lv > !btlevel then begin
      btlevel := lv;
      let x = learnt.a.(1) in
      learnt.a.(1) <- learnt.a.(k);
      learnt.a.(k) <- x
    end
  done;
  (* clear seen flags of the learnt literals *)
  for k = 0 to learnt.n - 1 do
    s.seen.(learnt.a.(k) lsr 1) <- false
  done;
  (Array.sub learnt.a 0 learnt.n, !btlevel)

(* ------------------------------------------------------------- clauses *)

let attach s lits =
  if s.n_clauses = Array.length s.clauses then begin
    let a = Array.make (2 * s.n_clauses) [||] in
    Array.blit s.clauses 0 a 0 s.n_clauses;
    s.clauses <- a
  end;
  s.clauses.(s.n_clauses) <- lits;
  ipush s.watches.(lits.(0)) s.n_clauses;
  ipush s.watches.(lits.(1)) s.n_clauses;
  s.n_clauses <- s.n_clauses + 1;
  s.n_clauses - 1

let add_clause s lits =
  List.iter (check_lit s) lits;
  if s.ok then begin
    assert (decision_level s = 0);
    (* normalize: dedupe, drop tautologies and false-at-level-0 lits *)
    let ils = List.sort_uniq compare (List.map ilit lits) in
    let taut = List.exists (fun l -> List.mem (l lxor 1) ils) ils in
    let sat_already = List.exists (fun l -> lit_value s l = 1) ils in
    if not (taut || sat_already) then begin
      match List.filter (fun l -> lit_value s l <> 0) ils with
      | [] -> s.ok <- false
      | [ l ] ->
        enqueue s l (-1);
        if propagate s >= 0 then s.ok <- false
      | l0 :: l1 :: rest ->
        ignore (attach s (Array.of_list (l0 :: l1 :: rest)))
    end
  end

(* --------------------------------------------------------------- solve *)

(* Luby restart sequence, 1-based: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do
    incr k
  done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
  else luby (i - ((1 lsl (!k - 1)) - 1))

let now_s () = Obs.now_us () /. 1e6

type result = Sat | Unsat

let record_metrics s ~d0 ~c0 ~p0 ~l0 ~t0 =
  s.st_solve_s <- s.st_solve_s +. (now_s () -. t0);
  if Obs.enabled () then begin
    let bump name by =
      if by > 0 then Obs.Metrics.incr ~by (Obs.Metrics.counter name)
    in
    Obs.Metrics.incr (Obs.Metrics.counter "sat.solver.solves");
    bump "sat.solver.decisions" (s.st_decisions - d0);
    bump "sat.solver.conflicts" (s.st_conflicts - c0);
    bump "sat.solver.propagations" (s.st_propagations - p0);
    bump "sat.solver.learned_clauses" (s.st_learned - l0);
    Obs.Metrics.set_max (Obs.Metrics.gauge "sat.solver.vars") s.nvars
  end

let solve ?(assumptions = []) s =
  List.iter (check_lit s) assumptions;
  let t0 = now_s () in
  let d0 = s.st_decisions
  and c0 = s.st_conflicts
  and p0 = s.st_propagations
  and l0 = s.st_learned in
  s.st_solves <- s.st_solves + 1;
  s.have_model <- false;
  let finish r =
    cancel_until s 0;
    record_metrics s ~d0 ~c0 ~p0 ~l0 ~t0;
    r
  in
  if not s.ok then finish Unsat
  else begin
    cancel_until s 0;
    let assumptions = Array.of_list (List.map ilit assumptions) in
    let n_assumptions = Array.length assumptions in
    let result = ref None in
    let conflicts_here = ref 0 in
    let restart_idx = ref 1 in
    let budget = ref (100 * luby 1) in
    while !result = None do
      let confl = propagate s in
      if confl >= 0 then begin
        s.st_conflicts <- s.st_conflicts + 1;
        incr conflicts_here;
        if decision_level s = 0 then begin
          s.ok <- false;
          result := Some Unsat
        end
        else begin
          let learnt, btlevel = analyze s confl in
          cancel_until s btlevel;
          s.st_learned <- s.st_learned + 1;
          s.st_learned_lits <- s.st_learned_lits + Array.length learnt;
          if Array.length learnt = 1 then enqueue s learnt.(0) (-1)
          else begin
            let ci = attach s learnt in
            enqueue s learnt.(0) ci
          end;
          var_decay s;
          if !conflicts_here >= !budget then begin
            (* Luby restart *)
            s.st_restarts <- s.st_restarts + 1;
            incr restart_idx;
            budget := 100 * luby !restart_idx;
            conflicts_here := 0;
            cancel_until s 0
          end
        end
      end
      else if decision_level s < n_assumptions then begin
        (* next assumption becomes the next decision *)
        let p = assumptions.(decision_level s) in
        match lit_value s p with
        | 1 -> ipush s.trail_lim s.trail_n (* already true: dummy level *)
        | 0 -> result := Some Unsat
        | _ ->
          s.st_decisions <- s.st_decisions + 1;
          ipush s.trail_lim s.trail_n;
          enqueue s p (-1)
      end
      else begin
        (* pick a branching variable *)
        let v = ref 0 in
        while !v = 0 && s.heap.n > 0 do
          let cand = heap_pop s in
          if s.value.(cand) < 0 then v := cand
        done;
        if !v = 0 then begin
          (* complete model *)
          let m = Array.make (s.nvars + 1) false in
          for u = 1 to s.nvars do
            m.(u) <- s.value.(u) = 1
          done;
          s.model <- m;
          s.have_model <- true;
          result := Some Sat
        end
        else begin
          s.st_decisions <- s.st_decisions + 1;
          ipush s.trail_lim s.trail_n;
          let l = (2 * !v) lor if s.polarity.(!v) then 0 else 1 in
          enqueue s l (-1)
        end
      end
    done;
    finish (Option.get !result)
  end

let model_value s v =
  if not s.have_model then
    invalid_arg "Sat.Solver.model_value: last solve was not Sat";
  if v <= 0 || v > s.nvars then invalid_arg "Sat.Solver.model_value";
  s.model.(v)

let stats s =
  {
    solves = s.st_solves;
    decisions = s.st_decisions;
    conflicts = s.st_conflicts;
    propagations = s.st_propagations;
    learned = s.st_learned;
    learned_lits = s.st_learned_lits;
    restarts = s.st_restarts;
    max_vars = s.nvars;
    solve_s = s.st_solve_s;
  }
