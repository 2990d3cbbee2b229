type 'b codec = {
  encode : 'b -> string;
  decode : string -> ('b, string) result;
}

let map ~jobs ~key ~settled ~settle f items =
  (* Each item resolves to a settled answer or to the slot of a fresh run;
     a key seen earlier in the batch shares that item's resolution. *)
  let seen = Hashtbl.create 64 and fresh = ref [] and n = ref 0 in
  let plan =
    List.map
      (fun x ->
        let k = key x in
        match Hashtbl.find_opt seen k with
        | Some p -> p
        | None ->
          let p =
            match settled k with
            | Some b -> `Settled b
            | None ->
              fresh := (k, x) :: !fresh;
              incr n;
              `Fresh (!n - 1)
          in
          Hashtbl.add seen k p;
          p)
      items
  in
  let fresh = List.rev !fresh in
  let results = Array.of_list (Pool.map ~jobs (fun (_, x) -> f x) fresh) in
  List.iteri (fun i (k, _) -> settle k results.(i)) fresh;
  List.map (function `Settled b -> Ok b | `Fresh i -> results.(i)) plan

let records resume =
  let records = Hashtbl.create 64 in
  List.iter
    (fun (e : Journal.entry) -> Hashtbl.add records e.key e.value)
    (List.rev resume);
  records

(* The settle rule for journaled items: per key, the first record whose
   payload decodes, or the first error record. A payload that no longer
   decodes (foreign or corrupt journal) is skipped, so a later good record
   for the same key still settles it; a key with no such record runs. *)
let first_good ~decode =
  List.find_map (function
    | Ok enc -> Result.to_option (Result.map Result.ok (decode enc))
    | Error m -> Some (Error m))

let pending ~key ~codec resume items =
  let records = records resume in
  List.filter
    (fun x ->
      Option.is_none
        (first_good ~decode:codec.decode (Hashtbl.find_all records (key x))))
    items

let run ?(jobs = 1) ?journal ?(resume = []) ?on_checkpoint ~key ~codec f
    items =
  let records = records resume in
  let settled k = first_good ~decode:codec.decode (Hashtbl.find_all records k) in
  let flatten = function Ok r -> r | Error e -> Error (Pool.error_message e) in
  let journaled = ref 0 in
  let settle k r =
    let value = Result.map codec.encode (flatten r) in
    (* Later chunks see this item as settled. *)
    Hashtbl.add records k value;
    Option.iter (fun j -> Journal.append j ~key:k ~value) journal;
    incr journaled;
    Option.iter (fun cb -> cb !journaled) on_checkpoint
  in
  (* A kill loses at most the chunk in flight. *)
  let chunk_size = 4 * max 1 jobs in
  let rec chunks acc = function
    | [] -> List.rev acc
    | rest ->
      let rec take n acc = function
        | x :: tl when n > 0 -> take (n - 1) (x :: acc) tl
        | tl -> (List.rev acc, tl)
      in
      let chunk, rest = take chunk_size [] rest in
      let rs = map ~jobs ~key ~settled ~settle (fun x -> Ok (f x)) chunk in
      chunks (List.rev_append rs acc) rest
  in
  List.map flatten (chunks [] items)
