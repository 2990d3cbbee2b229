exception Parse_error of int * string

(* Writing: AIGER requires variables numbered inputs first, then latches,
   then ANDs with defined-before-use ordering; we renumber. *)
let write g =
  let var_of = Hashtbl.create 256 in
  let next = ref 1 in
  let assign n =
    Hashtbl.replace var_of n !next;
    incr next
  in
  let inputs = Aig.pis g and latches = Aig.latches g in
  List.iter assign inputs;
  List.iter assign latches;
  let ands = ref [] in
  for n = 1 to Aig.num_nodes g - 1 do
    if Aig.kind g n = Aig.And then begin
      assign n;
      ands := n :: !ands
    end
  done;
  let ands = List.rev !ands in
  let lit l =
    let n = Aig.node_of_lit l in
    let v = if n = 0 then 0 else Hashtbl.find var_of n in
    (2 * v) + if Aig.is_complemented l then 1 else 0
  in
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let outputs = Aig.pos g in
  out "aag %d %d %d %d %d\n" (!next - 1) (List.length inputs)
    (List.length latches) (List.length outputs) (List.length ands);
  List.iter (fun n -> out "%d\n" (2 * Hashtbl.find var_of n)) inputs;
  List.iter
    (fun n ->
      let _, init, _, _ = Aig.latch_info g n in
      out "%d %d %d\n"
        (2 * Hashtbl.find var_of n)
        (lit (Aig.latch_next g n))
        (if init then 1 else 0))
    latches;
  List.iter (fun (_, l) -> out "%d\n" (lit l)) outputs;
  List.iter
    (fun n ->
      let f0, f1 = Aig.fanins g n in
      let a = lit f0 and b = lit f1 in
      out "%d %d %d\n" (2 * Hashtbl.find var_of n) (max a b) (min a b))
    ands;
  List.iteri (fun i n -> out "i%d %s\n" i (Aig.pi_name g n)) inputs;
  List.iteri
    (fun i n ->
      let name, _, _, _ = Aig.latch_info g n in
      out "l%d %s\n" i name)
    latches;
  List.iteri (fun i (name, _) -> out "o%d %s\n" i name) outputs;
  (* The comment section: what AIGER cannot say about each latch. *)
  if latches <> [] then out "c\n";
  List.iteri
    (fun i n ->
      let _, _, r, c = Aig.latch_info g n in
      out "l%d %s %b\n" i (Rtl.Design.reset_kind_to_string r) c)
    latches;
  Buffer.contents buf

let ordered g =
  List.equal Int.equal
    (Aig.pis g @ Aig.latches g)
    (List.init (Aig.num_pis g + Aig.num_latches g) succ)

let to_file path g =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (write g))

(* Reading: the section sizes are known from the header, so the symbol
   table can be scanned up front and real names used during construction. *)
let read text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let fail line fmt =
    Format.kasprintf (fun m -> raise (Parse_error (line, m))) fmt
  in
  let ints lineno s =
    String.split_on_char ' ' (String.trim s)
    |> List.filter (fun x -> x <> "")
    |> List.map (fun x ->
           match int_of_string_opt x with
           | Some v when v >= 0 -> v
           | _ -> fail lineno "bad integer %s" x)
  in
  if Array.length lines = 0 then fail 1 "empty file";
  let ni, nl, no, m, na =
    match
      String.split_on_char ' ' (String.trim lines.(0))
      |> List.filter (fun x -> x <> "")
    with
    | [ "aag"; m; i; l; o; a ] ->
      (match
         (int_of_string_opt i, int_of_string_opt l, int_of_string_opt o,
          int_of_string_opt m, int_of_string_opt a)
       with
       | Some i, Some l, Some o, Some m, Some a -> (i, l, o, m, a)
       | _ -> fail 1 "expected 'aag M I L O A' header")
    | _ -> fail 1 "expected 'aag M I L O A' header"
  in
  let need = 1 + ni + nl + no + na in
  if Array.length lines < need then fail (Array.length lines) "truncated file";
  let line_at k =
    if k >= Array.length lines then fail k "unexpected end of file"
    else lines.(k)
  in
  (* Symbol table, then the comment section, whose latch flags are kept
     under "c" ^ key. *)
  let names = Hashtbl.create 16 in
  let rec scan prefix k =
    if k < Array.length lines then begin
      let l = String.trim lines.(k) in
      (match String.index_opt l ' ' with
       | Some sp ->
         Hashtbl.replace names (prefix ^ String.sub l 0 sp)
           (String.sub l (sp + 1) (String.length l - sp - 1))
       | None -> ());
      scan (if l = "c" then "c" else prefix) (k + 1)
    end
  in
  scan "" need;
  let name_of prefix i default =
    Option.value ~default
      (Hashtbl.find_opt names (Printf.sprintf "%c%d" prefix i))
  in
  let g = Aig.create () in
  let lits = Array.make (m + 1) None in
  lits.(0) <- Some Aig.false_;
  let define lineno v l =
    if v mod 2 = 1 || v / 2 > m then fail lineno "bad defined literal %d" v;
    if lits.(v / 2) <> None then fail lineno "variable %d redefined" (v / 2);
    lits.(v / 2) <- Some l
  in
  (* Inputs. *)
  for i = 0 to ni - 1 do
    let k = 1 + i in
    match ints (k + 1) (line_at k) with
    | [ v ] -> define (k + 1) v (Aig.pi g (name_of 'i' i (Printf.sprintf "i%d" i)))
    | _ -> fail (k + 1) "bad input line"
  done;
  (* Latches (connected after the ANDs are defined). *)
  let latch_defs =
    List.init nl (fun i ->
        let k = 1 + ni + i in
        match ints (k + 1) (line_at k) with
        | v :: nxt :: (([] | [ 0 ] | [ 1 ]) as init) ->
          let key = Printf.sprintf "l%d" i in
          let reset, is_config =
            match
              Option.map (String.split_on_char ' ')
                (Hashtbl.find_opt names ("c" ^ key))
            with
            | Some [ r; c ] ->
              ( Option.value ~default:Rtl.Design.No_reset
                  (Rtl.Design.reset_kind_of_string r),
                c = "true" )
            | _ -> (Rtl.Design.No_reset, false)
          in
          let q =
            Aig.latch g (name_of 'l' i key) ~init:(init = [ 1 ]) ~reset
              ~is_config
          in
          define (k + 1) v q;
          (q, nxt, k + 1)
        | _ -> fail (k + 1) "bad latch line")
  in
  let output_defs =
    List.init no (fun i ->
        let k = 1 + ni + nl + i in
        match ints (k + 1) (line_at k) with
        | [ v ] -> (i, v, k + 1)
        | _ -> fail (k + 1) "bad output line")
  in
  let resolve lineno v =
    let var = v / 2 in
    if var > m then fail lineno "literal %d out of range" v;
    match lits.(var) with
    | Some l -> if v mod 2 = 1 then Aig.not_ l else l
    | None -> fail lineno "use of undefined variable %d" var
  in
  for i = 0 to na - 1 do
    let k = 1 + ni + nl + no + i in
    match ints (k + 1) (line_at k) with
    | [ v; a; b ] ->
      define (k + 1) v (Aig.and_ g (resolve (k + 1) a) (resolve (k + 1) b))
    | _ -> fail (k + 1) "bad and line"
  done;
  List.iter (fun (q, nxt, lineno) -> Aig.set_next g q (resolve lineno nxt)) latch_defs;
  List.iter
    (fun (i, v, lineno) ->
      Aig.po g (name_of 'o' i (Printf.sprintf "o%d" i)) (resolve lineno v))
    output_defs;
  g
