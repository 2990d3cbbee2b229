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
            | Some r -> `Settled r
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
  List.iteri (fun i (k, x) -> settle k x results.(i)) fresh;
  List.map (function `Settled r -> r | `Fresh i -> results.(i)) plan

(* The read rule for journal records: per key, the first payload that
   decodes. One that no longer decodes (foreign or corrupt journal) is
   skipped, so a later good record for the same key still settles it. *)
let first_good ~decode = List.find_map (fun v -> Result.to_option (decode v))
