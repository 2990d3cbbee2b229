type model = Control | Tables | Regs | Stuck | All

let model_name = function
  | Control -> "control"
  | Tables -> "tables"
  | Regs -> "regs"
  | Stuck -> "stuck"
  | All -> "all"

type row = { site : Site.t; result : (Sim.outcome, string) result }

type report = {
  model : model;
  seed : int;
  population : int;
  injected : int;
  masked : int;
  mismatches : int;
  hangs : int;
  failed : int;
  rows : row list;
}

(* Enumerate the full site population for [model], then (for [sites > 0])
   sample it down. Everything downstream of [seed] is deterministic: the
   register injection cycles and the sample draw use independent
   [Rng.split] streams consumed in a fixed order. *)
let enumerate ?aig ~seed ~sites ~model (spec : Sim.spec) =
  let rng = Workload.Rng.make seed in
  let cycles = List.length spec.stimulus in
  let cat = function
    | Control -> [ Site.No_fault ]
    | Tables -> Site.table_sites spec.design ~config:spec.config
    | Regs ->
      Site.reg_sites spec.design ~cycles ~rng:(Workload.Rng.split rng "regs")
    | Stuck ->
      (match aig with
       | None -> []
       | Some (a : Sim.aig_spec) -> Site.stuck_sites a.aig)
    | All -> assert false
  in
  let population =
    match model with
    | All -> cat Control @ cat Tables @ cat Regs @ cat Stuck
    | m -> cat m
  in
  let srng = Workload.Rng.split rng "sample" in
  let sampled =
    if sites <= 0 then population
    else
      match model with
      | All ->
        (* The control site always survives sampling: it anchors the
           campaign's self-test (a healthy simulator masks it). *)
        let rest = List.filter (fun s -> s <> Site.No_fault) population in
        let rest =
          if sites - 1 <= 0 then []
          else Site.sample srng ~count:(sites - 1) rest
        in
        Site.No_fault :: rest
      | _ -> Site.sample srng ~count:sites population
  in
  (population, sampled)

(* A site's outcome is a pure function of the site and what it runs on
   (the RTL spec, or the netlist and its stimulus): it is stored under the
   digest of that, then the site key. Names hold no whitespace. *)
let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))
let line tag atoms = String.concat " " (tag :: atoms)

let rtl_digest (spec : Sim.spec) =
  let bv = Bitvec.to_string in
  let config (n, c) = line "config" (n :: List.map bv (Array.to_list c)) in
  let cycle r = line "cycle" (List.concat_map (fun (n, v) -> [ n; bv v ]) r) in
  digest
    ([ Engine.Fingerprint.version; "fault rtl";
       Rtl.Serialize.write spec.design; line "watch" spec.watch;
       line "done" (Option.to_list spec.done_signal) ]
     @ List.map config spec.config @ List.map cycle spec.stimulus)

let aig_digest (a : Sim.aig_spec) =
  digest
    [ Engine.Fingerprint.version; "fault stuck"; Aig.digest a.aig;
      Printf.sprintf "cycles %d seed %d" a.cycles a.seed ]

let is_stuck = function Site.Stuck_at _ -> true | _ -> false

let rec split n = function
  | x :: tl when n > 0 ->
    let a, b = split (n - 1) tl in
    (x :: a, b)
  | l -> ([], l)

let run ?jobs ?engine ?on_checkpoint ?aig ~seed ~sites ~model
    (spec : Sim.spec) =
  Obs.Span.with_span
    ~args:
      [
        ("model", Obs.Span.Str (model_name model));
        ("seed", Obs.Span.Int seed);
      ]
    "fault.campaign"
  @@ fun () ->
  let population, injected = enumerate ?aig ~seed ~sites ~model spec in
  let jobs =
    Option.value jobs ~default:(Option.fold ~none:1 ~some:Engine.jobs engine)
  in
  (* The digests are computed only if the engine has a store. *)
  let rtl = lazy (rtl_digest spec)
  and stuck = lazy (aig_digest (Option.get aig)) in
  let store_key site =
    let scope = if is_stuck site then stuck else rtl in
    lazy (Lazy.force scope ^ " " ^ Site.key site)
  in
  (* Each site settles from the store, or is simulated and stored. *)
  let known = Hashtbl.create 64 in
  let recall e site =
    Engine.lookup e ~decode:Sim.outcome_of_string (store_key site)
    |> Option.iter (fun o -> Hashtbl.replace known (Site.key site) (Ok o))
  in
  Option.iter (fun e -> List.iter (recall e) injected) engine;
  let pending =
    List.filter (fun site -> not (Hashtbl.mem known (Site.key site))) injected
  in
  (* Only the pending sites are simulated, so a resumed campaign pays for
     no work it skips. The RTL golden is computed once, and only if some
     pending site needs it; it is shared read-only with every worker. *)
  let g =
    if List.for_all is_stuck pending then None else Some (Sim.golden spec)
  in
  (* Packed pre-pass: classify every pending stuck-at site,
     {!Aig.Compiled.lanes} sites per simulation pass, before the workers
     start — they then answer those sites from a read-only table. *)
  let packed_results = Hashtbl.create 64 in
  (match (aig, List.filter is_stuck pending) with
   | Some a, (_ :: _ as stuck_sites) ->
     List.iter
       (fun (site, o) -> Hashtbl.replace packed_results (Site.key site) o)
       (Sim.aig_run_sites_packed a (Sim.aig_golden a) stuck_sites)
   | _ -> ());
  let run_one = function
    | Site.Stuck_at _ as site -> Hashtbl.find packed_results (Site.key site)
    | site -> Sim.run_site spec (Option.get g) site
  in
  (* Sites run in chunks of [4 * jobs], each stored as it settles, in site
     order, so a kill loses at most the chunk in flight. A failure is not
     stored: the site runs again next time, and fails the same way. *)
  let stored = ref 0 in
  let store site o e =
    Engine.append e (store_key site) (Sim.outcome_to_string o)
  in
  let settle site r =
    Hashtbl.replace known (Site.key site)
      (Result.map_error Engine.Pool.error_message r);
    Result.iter
      (fun o ->
        Option.iter (store site o) engine;
        incr stored;
        Option.iter (fun f -> f !stored) on_checkpoint)
      r
  in
  let rec chunks = function
    | [] -> ()
    | rest ->
      let chunk, rest = split (4 * max 1 jobs) rest in
      List.iter2 settle chunk (Engine.Pool.map ~jobs run_one chunk);
      chunks rest
  in
  chunks pending;
  let rows =
    List.map
      (fun site -> { site; result = Hashtbl.find known (Site.key site) })
      injected
  in
  let count p = List.length (List.filter p rows) in
  let report =
    {
      model;
      seed;
      population = List.length population;
      injected = List.length injected;
      masked = count (fun r -> r.result = Ok Sim.Masked);
      mismatches =
        count (fun r ->
            match r.result with Ok (Sim.Mismatch _) -> true | _ -> false);
      hangs =
        count (fun r ->
            match r.result with Ok (Sim.Hang _) -> true | _ -> false);
      failed =
        count (fun r -> match r.result with Error _ -> true | _ -> false);
      rows;
    }
  in
  if Obs.enabled () then begin
    let c name by = Obs.Metrics.incr ~by (Obs.Metrics.counter name) in
    c "fault.sites" report.injected;
    c "fault.masked" report.masked;
    c "fault.mismatches" report.mismatches;
    c "fault.hangs" report.hangs;
    c "fault.failed" report.failed;
    (* Counts sites (= packed lanes), not packed passes: a pass that
       classifies 63 lanes contributes 63. *)
    c "fault.campaign.packed_sites" (Hashtbl.length packed_results);
    Obs.Span.add_args
      [
        ("sites", Obs.Span.Int report.injected);
        ("masked", Obs.Span.Int report.masked);
        ("mismatches", Obs.Span.Int report.mismatches);
        ("hangs", Obs.Span.Int report.hangs);
        ("failed", Obs.Span.Int report.failed);
      ]
  end;
  report

let first_mismatch report =
  List.find_map
    (fun r ->
      match r.result with Ok (Sim.Mismatch _) -> Some r.site | _ -> None)
    report.rows

let to_table report =
  let rows =
    List.map
      (fun r ->
        match r.result with
        | Ok o -> [ Site.key r.site; Sim.outcome_class o; Sim.outcome_detail o ]
        | Error e -> [ Site.key r.site; "FAILED"; e ])
      report.rows
  in
  Report.Table.render
    ~align:[ Report.Table.Left; Report.Table.Left; Report.Table.Left ]
    ~header:[ "site"; "outcome"; "detail" ]
    rows

let summary_line report =
  Printf.sprintf
    "summary: sites %d/%d  masked %d  mismatch %d  hang %d  failed %d"
    report.injected report.population report.masked report.mismatches
    report.hangs report.failed

let print oc report =
  Printf.fprintf oc "fault campaign: model=%s seed=%d\n" (model_name report.model)
    report.seed;
  output_string oc (to_table report);
  output_string oc (summary_line report);
  output_char oc '\n'

let to_json report =
  let open Report.Json in
  Obj
    [
      ("model", String (model_name report.model));
      ("seed", Int report.seed);
      ("population", Int report.population);
      ("injected", Int report.injected);
      ("masked", Int report.masked);
      ("mismatch", Int report.mismatches);
      ("hang", Int report.hangs);
      ("failed", Int report.failed);
      ( "rows",
        List
          (List.map
             (fun r ->
               Obj
                 (("site", String (Site.key r.site))
                  ::
                  (match r.result with
                   | Ok o ->
                     [
                       ("outcome", String (Sim.outcome_class o));
                       ("detail", String (Sim.outcome_detail o));
                     ]
                   | Error e ->
                     [ ("outcome", String "failed"); ("detail", String e) ])))
             report.rows) );
    ]
