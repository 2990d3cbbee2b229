type t = {
  c : Aig.Compiled.t;
  latch_changed : int array;  (* per latch slot: OR of (state XOR init) *)
}

let compute g =
  let c = Aig.Compiled.compile g in
  let s = Aig.Compiled.sim c in
  let nl = Aig.Compiled.num_latches c in
  let latch_changed = Array.make nl 0 in
  let inits = Array.init nl (Aig.Compiled.latch_word s) in
  Aig.Compiled.with_metrics s @@ fun () ->
  for round = 0 to 1 do
    Aig.Compiled.reset s;
    let st = Random.State.make [| 0x516; 0x51b5; round |] in
    for _cycle = 0 to 11 do
      for i = 0 to Aig.Compiled.num_pis c - 1 do
        Aig.Compiled.set_pi s i (Aig.Compiled.random_word st)
      done;
      Aig.Compiled.step s;
      for j = 0 to nl - 1 do
        latch_changed.(j) <-
          latch_changed.(j) lor (Aig.Compiled.latch_word s j lxor inits.(j))
      done
    done
  done;
  { c; latch_changed }

let latch_may_be_const t id =
  match Aig.Compiled.latch_slot t.c id with
  | Some j -> t.latch_changed.(j) = 0
  | None -> invalid_arg "Simsig.latch_may_be_const: not a latch"
