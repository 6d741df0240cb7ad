(* E11 -- the classic frequency-based broadcast disk (Acharya et al.) vs
   the paper's pinwheel construction.

   The classic construction assigns frequencies by POPULARITY (it
   minimizes mean latency); the paper's assigns them by DEADLINE. The two
   disagree exactly when an unpopular file is urgent -- the emergency
   alert nobody reads until it matters. *)

module Program = Pindisk.Program
module Multidisk = Pindisk.Multidisk
module File_spec = Pindisk.File_spec

let run () =
  Format.printf
    "== E11 / classic multi-disk (popularity-driven) vs pinwheel \
     (deadline-driven) ==@.";
  (* Popularity: news >> archive >> alerts. Deadlines: alerts 8 slots,
     news 16, archive 32. *)
  let classic =
    Multidisk.program
      [
        { Multidisk.frequency = 2; files = [ (1, 4) ] } (* news: popular *);
        { Multidisk.frequency = 1; files = [ (0, 2); (2, 8) ] }
        (* alerts and archive: unpopular, slow disk *);
      ]
  in
  let files =
    [
      File_spec.make ~name:"alerts" ~id:0 ~blocks:2 ~latency:8 ();
      File_spec.make ~name:"news" ~id:1 ~blocks:4 ~latency:16 ();
      File_spec.make ~name:"archive" ~id:2 ~blocks:8 ~latency:32 ();
    ]
  in
  let pin =
    Option.get
      (Pindisk.Shard.program
         (Result.get_ok (Pindisk.Shard.design ~channels:1 ~bandwidth:1 files)))
  in
  Format.printf "  %-9s %9s | %-23s | %-23s@." "" "" "classic multi-disk"
    "pinwheel (this paper)";
  Format.printf "  %-9s %9s | %9s %13s | %9s %13s@." "file" "deadline"
    "mean-next" "worst (ok?)" "mean-next" "worst (ok?)";
  List.iter
    (fun f ->
      let id = f.File_spec.id in
      let deadline = f.File_spec.latency in
      let row p =
        let mean = Option.get (Multidisk.expected_delay p id) in
        let worst = Option.get (Multidisk.worst_case_retrieval_error_free p id) in
        (mean, worst, if worst <= deadline then "ok" else "MISS")
      in
      let cm, cw, cok = row classic and pm, pw, pok = row pin in
      Format.printf "  %-9s %9d | %9.1f %8d (%s) | %9.1f %8d (%s)@."
        f.File_spec.name deadline cm cw cok pm pw pok)
    files;
  Format.printf
    "  (the classic farm gives its popular file a great mean but parks \
     the urgent@.   'alerts' file on the slow disk: worst case = the full \
     major cycle, blowing@.   the 8-slot deadline. The pinwheel program \
     is built from the deadlines and@.   meets all of them -- the gap \
     this paper's construction closes.)@.@."
