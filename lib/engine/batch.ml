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

(* The settle rule for journaled items: per key, the first record whose
   payload decodes, or the first error record. A payload that no longer
   decodes (foreign or corrupt journal) is skipped, so a later good record
   for the same key still settles it; a key with no such record runs. *)
let resume_table ~codec resume =
  let resumed = Hashtbl.create 64 in
  List.iter
    (fun (e : Journal.entry) ->
      if not (Hashtbl.mem resumed e.key) then
        match e.value with
        | Ok enc ->
          Result.iter (fun b -> Hashtbl.add resumed e.key (Ok b))
            (codec.decode enc)
        | Error m -> Hashtbl.add resumed e.key (Error m))
    resume;
  resumed

let pending ~key ~codec resume items =
  let resumed = resume_table ~codec resume in
  List.filter (fun x -> not (Hashtbl.mem resumed (key x))) items

let run ?(jobs = 1) ?journal ?(resume = []) ?on_checkpoint ~key ~codec f
    items =
  let resumed = resume_table ~codec resume in
  let settled = Hashtbl.find_opt resumed in
  let flatten = function Ok r -> r | Error e -> Error (Pool.error_message e) in
  let journaled = ref 0 in
  let settle k r =
    let r = flatten r in
    (* Later chunks see this item as settled. *)
    Hashtbl.replace resumed k r;
    Option.iter
      (fun j -> Journal.append j ~key:k ~value:(Result.map codec.encode r))
      journal;
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
