type t = {
  solver : Solver.t;
  graph : Aig.t;
  vars : (int, int) Hashtbl.t;  (* AIG node -> solver variable *)
}

let create solver graph = { solver; graph; vars = Hashtbl.create 256 }

let solver t = t.solver

let var_of_node t n = Hashtbl.find_opt t.vars n

(* Encode the cone of [root] iteratively (AIG depth can exceed the OCaml
   stack on unrolled netlists). A node is popped only once both fanins are
   encoded; the work stack never holds a node twice thanks to the
   [vars] membership check at push time being re-done at pop time. *)
let rec encode_node t root =
  let stack = ref [ root ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | n :: rest ->
      if Hashtbl.mem t.vars n then stack := rest
      else begin
        match Aig.kind t.graph n with
        | Aig.Const ->
          (* node 0: a variable unit-forced to false *)
          let v = Solver.new_var t.solver in
          Hashtbl.replace t.vars n v;
          Solver.add_clause t.solver [ -v ];
          stack := rest
        | Aig.Pi | Aig.Latch ->
          Hashtbl.replace t.vars n (Solver.new_var t.solver);
          stack := rest
        | Aig.And ->
          let f0, f1 = Aig.fanins t.graph n in
          let n0 = Aig.node_of_lit f0 and n1 = Aig.node_of_lit f1 in
          let p0 = Hashtbl.mem t.vars n0 and p1 = Hashtbl.mem t.vars n1 in
          if p0 && p1 then begin
            let v = Solver.new_var t.solver in
            Hashtbl.replace t.vars n v;
            let l0 = lit_of t f0 and l1 = lit_of t f1 in
            (* v <-> l0 /\ l1 *)
            Solver.add_clause t.solver [ -v; l0 ];
            Solver.add_clause t.solver [ -v; l1 ];
            Solver.add_clause t.solver [ v; -l0; -l1 ];
            stack := rest
          end
          else begin
            let todo = if p0 then [] else [ n0 ] in
            let todo = if p1 then todo else n1 :: todo in
            stack := todo @ !stack
          end
      end
  done;
  Hashtbl.find t.vars root

and lit_of t l =
  let v = Hashtbl.find t.vars (Aig.node_of_lit l) in
  if Aig.is_complemented l then -v else v

let lit t l =
  let v = encode_node t (Aig.node_of_lit l) in
  if Aig.is_complemented l then -v else v
