type estimate = {
  dynamic : float;
  leakage : float;
  toggles_per_cycle : float;
}

let total e = e.dynamic +. e.leakage

(* Leakage per µm² — an arbitrary constant; only ratios matter. *)
let leakage_per_area = 0.01

let cycles = 128

(* One compiled simulator on lane 0 replaces per-cycle hashtable
   evaluation. Observed nets sit in flat arrays: mapped instances in the
   [Hashtbl.iter] order of [Map.run_full], then latches, so the float sum
   accumulates in a fixed order. [prev.(n) = -1] until node [n] is first
   seen; the first cycle counts no toggles. *)
let estimate ?(config = []) lib g report instances =
  Obs.Span.with_span
    ~args:
      [ ("cycles", Obs.Span.Int cycles); ("ands", Obs.Span.Int (Aig.num_ands g)) ]
    "power.estimate"
  @@ fun () ->
  let rng = Random.State.make [| 0x70777; 1 |] in
  let c = Aig.Compiled.compile g in
  let sim = Aig.Compiled.sim c in
  let latches = Array.of_list (Aig.latches g) in
  (* Program the configuration latches. *)
  List.iter
    (fun (tname, contents) ->
      Array.iteri
        (fun e word ->
          Bitvec.fold_bits
            (fun b v () ->
              match Aig.find_latch g (Lower.config_bit_name tname e b) with
              | Some n ->
                Aig.Compiled.set_latch sim
                  (Option.get (Aig.Compiled.latch_slot c n))
                  (Aig.Compiled.replicate v)
              | None -> ())
            word ())
        contents)
    config;
  let n_obs = Hashtbl.length instances + Array.length latches in
  let obs_node = Array.make n_obs 0 and obs_weight = Array.make n_obs 0.0 in
  let filled = ref 0 in
  let add n weight =
    obs_node.(!filled) <- n;
    obs_weight.(!filled) <- weight;
    incr filled
  in
  Hashtbl.iter
    (fun n (inst : Map.instance) -> add n inst.Map.inst_cell.Cells.Cell.area)
    instances;
  Array.iter
    (fun n ->
      let _, _, reset, is_config = Aig.latch_info g n in
      add n
        (if is_config then 0.0 (* configuration bits never toggle *)
         else (Cells.Library.flop lib reset).Cells.Cell.area))
    latches;
  let prev = Array.make (Aig.num_nodes g) (-1) in
  let n_pis = Aig.num_pis g in
  let weighted = ref 0.0 in
  let toggles = ref 0 in
  for _cycle = 1 to cycles do
    for p = 0 to n_pis - 1 do
      Aig.Compiled.set_pi sim p (if Random.State.bool rng then 1 else 0)
    done;
    Aig.Compiled.step sim;
    for i = 0 to n_obs - 1 do
      let n = obs_node.(i) in
      let v = Aig.Compiled.node_value sim n land 1 in
      let old = prev.(n) in
      if old >= 0 && old <> v then begin
        incr toggles;
        weighted := !weighted +. obs_weight.(i)
      end;
      prev.(n) <- v
    done
  done;
  {
    dynamic = !weighted /. float_of_int cycles;
    leakage = leakage_per_area *. Map.total report;
    toggles_per_cycle = float_of_int !toggles /. float_of_int cycles;
  }
