type outcome =
  | Masked
  | Mismatch of { cycle : int; signal : string }
  | Hang of string

let outcome_class = function
  | Masked -> "masked"
  | Mismatch _ -> "mismatch"
  | Hang _ -> "hang"

let outcome_detail = function
  | Masked -> ""
  | Mismatch { cycle; signal } -> Printf.sprintf "cycle %d, %s" cycle signal
  | Hang reason -> reason

let outcome_to_string = function
  | Masked -> "masked"
  | Mismatch { cycle; signal } -> Printf.sprintf "mismatch %d %s" cycle signal
  | Hang reason -> "hang " ^ reason

let outcome_of_string s =
  if s = "masked" then Ok Masked
  else if String.length s > 5 && String.sub s 0 5 = "hang " then
    Ok (Hang (String.sub s 5 (String.length s - 5)))
  else
    match String.split_on_char ' ' s with
    | "mismatch" :: cycle :: signal ->
      (match int_of_string_opt cycle with
       | Some cycle when signal <> [] ->
         Ok (Mismatch { cycle; signal = String.concat " " signal })
       | _ -> Error ("bad mismatch outcome: " ^ s))
    | _ -> Error ("unknown outcome: " ^ s)

(* ------------------------------------------------------- RTL fault sim *)

type spec = {
  design : Rtl.Design.t;
  config : (string * Bitvec.t array) list;
  stimulus : (string * Bitvec.t) list list;
  watch : string list;
  done_signal : string option;
}

(* A faulty run that has not asserted [done] by twice the stimulus length
   hangs. *)
let hang_factor = 2

let spec ?(config = []) ?done_signal ~stimulus ~watch design =
  (* The hang detector compares [done_signal] cycle by cycle too: a fault
     that merely delays completion shows up as a mismatch, not a hang. *)
  let watch =
    match done_signal with
    | Some s when not (List.mem s watch) -> watch @ [ s ]
    | _ -> watch
  in
  { design; config; stimulus; watch; done_signal }

type golden = { samples : Bitvec.t list list; done_seen : bool }

let flip v bit = Bitvec.set v bit (not (Bitvec.get v bit))

(* Produce the (design, config) pair with a persistent storage fault baked
   in. Register upsets are transient and injected during the run instead.
   Fresh arrays are allocated before flipping: the spec's bindings are
   shared across concurrent campaign jobs and must never be mutated. *)
let materialize spec site =
  match site with
  | Site.Table_bit { table; entry; bit } ->
    (match (Rtl.Design.find_table spec.design table).Rtl.Design.storage with
     | Rtl.Design.Config ->
       let config =
         List.map
           (fun (n, contents) ->
             if n = table then begin
               let c = Array.copy contents in
               c.(entry) <- flip c.(entry) bit;
               (n, c)
             end
             else (n, contents))
           spec.config
       in
       (spec.design, config)
     | Rtl.Design.Rom contents ->
       let c = Array.copy contents in
       c.(entry) <- flip c.(entry) bit;
       (Rtl.Design.with_rom_contents spec.design table c, spec.config))
  | Site.No_fault | Site.Reg_bit _ -> (spec.design, spec.config)
  | Site.Stuck_at _ ->
    invalid_arg "Fault.Sim: stuck-at faults simulate on the netlist (aig_*)"

let run_traced spec site ~extend =
  let design, config = materialize spec site in
  let st = Rtl.Eval.create ~config design in
  Rtl.Eval.reset st;
  let done_seen = ref false in
  let check_done () =
    Option.iter
      (fun s ->
        if Bitvec.reduce_or (Rtl.Eval.peek st s) then done_seen := true)
      spec.done_signal
  in
  let inject cycle =
    match site with
    | Site.Reg_bit { reg; bit; cycle = c } when c = cycle ->
      Rtl.Eval.poke_reg st reg (flip (Rtl.Eval.peek_reg st reg) bit)
    | _ -> ()
  in
  let samples =
    List.mapi
      (fun cycle alist ->
        inject cycle;
        List.iter (fun (n, v) -> Rtl.Eval.set_input st n v) alist;
        let row = List.map (Rtl.Eval.peek st) spec.watch in
        check_done ();
        Rtl.Eval.step st;
        row)
      spec.stimulus
  in
  (* Hang budget: keep clocking with inputs held at their final values, up
     to [hang_factor] times the stimulus length, watching for [done]. *)
  let base = List.length spec.stimulus in
  if extend && Option.is_some spec.done_signal && not !done_seen then begin
    let budget = max 0 ((hang_factor - 1) * base) in
    for cycle = base to base + budget - 1 do
      inject cycle;
      check_done ();
      if not !done_seen then Rtl.Eval.step st
    done
  end;
  (samples, !done_seen)

let golden spec =
  let samples, done_seen = run_traced spec Site.No_fault ~extend:false in
  { samples; done_seen }

let compare_samples spec ~golden ~faulty =
  let rec rows cycle gs fs =
    match (gs, fs) with
    | [], [] -> Masked
    | grow :: gs, frow :: fs ->
      let rec cells ws gvs fvs =
        match (ws, gvs, fvs) with
        | [], [], [] -> None
        | w :: ws, gv :: gvs, fv :: fvs ->
          if Bitvec.equal gv fv then cells ws gvs fvs else Some w
        | _ -> assert false
      in
      (match cells spec.watch grow frow with
       | Some signal -> Mismatch { cycle; signal }
       | None -> rows (cycle + 1) gs fs)
    | _ -> assert false
  in
  rows 0 golden faulty

let run_site spec (g : golden) site =
  let faulty, done_seen = run_traced spec site ~extend:true in
  if Option.is_some spec.done_signal && g.done_seen && not done_seen then
    Hang
      (Printf.sprintf "%s never asserted within %d cycles"
         (Option.get spec.done_signal)
         (hang_factor * List.length spec.stimulus))
  else compare_samples spec ~golden:g.samples ~faulty

let trace_site spec site = fst (run_traced spec site ~extend:false)

let vcd_site spec site =
  let signals =
    List.map
      (fun w ->
        match Rtl.Vcd.signal_width spec.design w with
        | Some width -> (w, width)
        | None -> invalid_arg ("Fault.Sim.vcd_site: unknown signal " ^ w))
      spec.watch
  in
  Rtl.Vcd.of_samples ~name:spec.design.Rtl.Design.name ~signals
    (trace_site spec site)

(* ----------------------------------------------------- netlist (AIG) sim *)

type aig_spec = { aig : Aig.t; cycles : int; seed : int }

type aig_golden = bool array array

let aig_stimulus spec =
  (* One row of PI values per cycle, deterministic in [seed] and generated
     identically for golden and faulty runs. *)
  let rng = Workload.Rng.make spec.seed in
  let num_pis = Aig.num_pis spec.aig in
  Array.init spec.cycles (fun _ ->
      Array.init num_pis (fun _ -> Workload.Rng.bool rng))

(* The one place a site becomes a netlist force: [site_force site s lane]
   makes [lane] of [s] see the stuck node at its stuck value. RTL-state
   sites cannot be expressed as a netlist force and raise as soon as the
   site is given, before any simulation. *)
let site_force site =
  match site with
  | Site.Stuck_at { node; value } ->
    fun s lane ->
      let m = 1 lsl lane in
      if value then Aig.Compiled.add_force s ~node ~set:m ~clear:0
      else Aig.Compiled.add_force s ~node ~set:0 ~clear:m
  | Site.No_fault -> fun _ _ -> ()
  | Site.Table_bit _ | Site.Reg_bit _ ->
    invalid_arg "Fault.Sim: RTL-state faults simulate on the RTL (run_site)"

(* A scalar run forces lane 0 only: lane 0 of every word depends on
   lane-0 bits alone, so the other lanes are never read. *)
let aig_run spec force =
  let s = Aig.Compiled.sim (Aig.Compiled.compile spec.aig) in
  force s 0;
  let stim = aig_stimulus spec in
  Aig.Compiled.with_metrics ~active_lanes:1 s (fun () ->
      Aig.Compiled.run s ~cycles:spec.cycles ~input:(fun c i -> stim.(c).(i)))

let aig_golden spec = aig_run spec (site_force Site.No_fault)

let aig_run_site spec (g : aig_golden) site =
  let faulty = aig_run spec (site_force site) in
  let names = Array.of_list (List.map fst (Aig.pos spec.aig)) in
  let rec scan cycle k =
    if cycle >= spec.cycles then Masked
    else if k >= Array.length names then scan (cycle + 1) 0
    else if g.(cycle).(k) <> faulty.(cycle).(k) then
      Mismatch { cycle; signal = names.(k) }
    else scan cycle (k + 1)
  in
  scan 0 0

let rec take_chunk k acc = function
  | rest when k = 0 -> (List.rev acc, rest)
  | [] -> (List.rev acc, [])
  | x :: rest -> take_chunk (k - 1) (x :: acc) rest

let aig_run_sites_packed spec (g : aig_golden) sites =
  let c = Aig.Compiled.compile spec.aig in
  let stim = aig_stimulus spec in
  let npis = Aig.Compiled.num_pis c in
  let npos = Aig.Compiled.num_pos c in
  let po_names = Array.init npos (Aig.Compiled.po_name c) in
  (* Golden PO words, replicated across lanes once per call. *)
  let golden_words = Array.map (Array.map Aig.Compiled.replicate) g in
  let s = Aig.Compiled.sim c in
  (* One packed pass: lane [i] carries site [i] of the chunk via its force
     masks; every undecided lane is compared against the golden word after
     each cycle. Scan order (cycles outer, POs in declaration order inner,
     first divergence wins) matches [aig_run_site] exactly, so
     classifications are byte-identical. *)
  let run_chunk chunk =
    let site_arr = Array.of_list chunk in
    let nsites = Array.length site_arr in
    Aig.Compiled.clear_forces s;
    Aig.Compiled.reset s;
    Array.iteri (fun lane site -> site_force site s lane) site_arr;
    let outcomes = Array.make nsites Masked in
    let undecided =
      ref
        (if nsites >= Aig.Compiled.lanes then Aig.Compiled.all_lanes
         else (1 lsl nsites) - 1)
    in
    Aig.Compiled.with_metrics ~active_lanes:nsites s (fun () ->
        let cycle = ref 0 in
        while !undecided <> 0 && !cycle < spec.cycles do
          let piv = stim.(!cycle) in
          for i = 0 to npis - 1 do
            Aig.Compiled.set_pi s i (Aig.Compiled.replicate piv.(i))
          done;
          Aig.Compiled.step s;
          let gw = golden_words.(!cycle) in
          for k = 0 to npos - 1 do
            let diff = ref ((Aig.Compiled.po s k lxor gw.(k)) land !undecided) in
            while !diff <> 0 do
              let lane = Aig.Compiled.ctz !diff in
              outcomes.(lane) <-
                Mismatch { cycle = !cycle; signal = po_names.(k) };
              undecided := !undecided land lnot (1 lsl lane);
              diff := !diff land (!diff - 1)
            done
          done;
          incr cycle
        done);
    List.mapi (fun lane site -> (site, outcomes.(lane))) chunk
  in
  let rec go acc = function
    | [] -> List.concat (List.rev acc)
    | rest ->
      let chunk, rest = take_chunk Aig.Compiled.lanes [] rest in
      go (run_chunk chunk :: acc) rest
  in
  go [] sites
