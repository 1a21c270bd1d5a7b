//===- perfbench/src/TraceStats.cpp - Span-family accounting --------------===//

#include "TraceStats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace perfbench {

namespace {

struct Event {
  std::string Family;
  int64_t StartNs = 0;
  int64_t DurNs = 0;
  unsigned Tid = 0;
  std::vector<std::pair<std::string, int64_t>> Args;
};

/// Microseconds with three decimals (the tracer's export format) to
/// integer nanoseconds.
int64_t usToNs(const char *P) {
  return static_cast<int64_t>(std::llround(std::strtod(P, nullptr) * 1000.0));
}

bool numberAfter(const std::string &Line, const char *Key, const char **Out) {
  size_t At = Line.find(Key);
  if (At == std::string::npos)
    return false;
  *Out = Line.c_str() + At + std::char_traits<char>::length(Key);
  return true;
}

/// One `{"name": ..., "ph": "X", ...}` line of the export.
bool parseEvent(const std::string &Line, Event &E) {
  static const char NameKey[] = "{\"name\": \"";
  size_t At = Line.find(NameKey);
  if (At == std::string::npos || Line.find("\"ph\": \"X\"") == std::string::npos)
    return false;
  size_t B = At + sizeof NameKey - 1, End = B;
  while (End < Line.size() && !(Line[End] == '"' && Line[End - 1] != '\\'))
    ++End;
  std::string Name = Line.substr(B, End - B);
  E.Family = Name.substr(0, Name.find(':'));
  const char *P = nullptr;
  if (!numberAfter(Line, "\"ts\": ", &P))
    return false;
  E.StartNs = usToNs(P);
  if (!numberAfter(Line, "\"dur\": ", &P))
    return false;
  E.DurNs = usToNs(P);
  if (!numberAfter(Line, "\"tid\": ", &P))
    return false;
  E.Tid = static_cast<unsigned>(std::strtoul(P, nullptr, 10));
  size_t A = Line.find("\"args\": {");
  if (A != std::string::npos) {
    size_t K = Line.find('"', A + 9);
    while (K != std::string::npos) {
      size_t KEnd = Line.find('"', K + 1);
      if (KEnd == std::string::npos || Line.compare(KEnd + 1, 2, ": ") != 0)
        break;
      std::string Key = Line.substr(K + 1, KEnd - K - 1);
      char *NumEnd = nullptr;
      long long V = std::strtoll(Line.c_str() + KEnd + 3, &NumEnd, 10);
      E.Args.emplace_back(std::move(Key), static_cast<int64_t>(V));
      K = Line.find('"', static_cast<size_t>(NumEnd - Line.c_str()));
    }
  }
  return true;
}

uint64_t otherDataCount(const std::string &Json, const char *Key) {
  size_t At = Json.find(Key);
  if (At == std::string::npos)
    return 0;
  return std::strtoull(Json.c_str() + At + std::char_traits<char>::length(Key),
                       nullptr, 10);
}

} // namespace

TraceSummary summarizeTrace(const std::string &ChromeJson,
                            const std::string &RootFamily) {
  TraceSummary S;
  S.Events = otherDataCount(ChromeJson, "\"total_events\": ");
  S.Dropped = otherDataCount(ChromeJson, "\"dropped_events\": ");

  std::map<unsigned, std::vector<Event>> ByThread;
  size_t Pos = 0;
  while (Pos < ChromeJson.size()) {
    size_t Nl = ChromeJson.find('\n', Pos);
    if (Nl == std::string::npos)
      Nl = ChromeJson.size();
    Event E;
    if (parseEvent(ChromeJson.substr(Pos, Nl - Pos), E)) {
      ++S.Parsed;
      ByThread[E.Tid].push_back(std::move(E));
    }
    Pos = Nl + 1;
  }

  for (auto &[Tid, Events] : ByThread) {
    (void)Tid;
    ++S.Threads;
    // Parents start no later and last no shorter than their children.
    std::stable_sort(Events.begin(), Events.end(),
                     [](const Event &A, const Event &B) {
                       if (A.StartNs != B.StartNs)
                         return A.StartNs < B.StartNs;
                       return A.DurNs > B.DurNs;
                     });
    std::vector<size_t> Stack;
    std::vector<int64_t> ChildNs(Events.size(), 0);
    std::map<std::string, unsigned> OpenOfFamily;
    unsigned OpenRoots = 0;
    std::vector<bool> UnderRoot(Events.size(), false);
    auto pop = [&] {
      const Event &Top = Events[Stack.back()];
      --OpenOfFamily[Top.Family];
      if (Top.Family == RootFamily)
        --OpenRoots;
      Stack.pop_back();
    };
    for (size_t I = 0; I < Events.size(); ++I) {
      const Event &E = Events[I];
      while (!Stack.empty() && Events[Stack.back()].StartNs +
                                       Events[Stack.back()].DurNs <=
                                   E.StartNs)
        pop();
      if (!Stack.empty())
        ChildNs[Stack.back()] += E.DurNs;
      FamilyStats &F = S.Families[E.Family];
      ++F.Calls;
      if (OpenOfFamily[E.Family]++ == 0)
        F.InclNs += E.DurNs;
      if (E.Family == RootFamily) {
        S.RootNs += OpenRoots == 0 ? E.DurNs : 0;
        ++OpenRoots;
      }
      UnderRoot[I] = OpenRoots > 0;
      for (const auto &[Key, V] : E.Args)
        S.ArgSums[E.Family + "/" + Key] += V;
      Stack.push_back(I);
    }
    for (size_t I = 0; I < Events.size(); ++I) {
      int64_t Self = Events[I].DurNs - ChildNs[I];
      S.Families[Events[I].Family].SelfNs += Self;
      S.AllThreadsSelfNs += Self;
      if (UnderRoot[I])
        S.RootThreadSelfNs += Self;
    }
  }
  return S;
}

void TraceSummary::merge(const TraceSummary &O) {
  for (const auto &[Name, F] : O.Families) {
    FamilyStats &Mine = Families[Name];
    Mine.SelfNs += F.SelfNs;
    Mine.InclNs += F.InclNs;
    Mine.Calls += F.Calls;
  }
  for (const auto &[Key, V] : O.ArgSums)
    ArgSums[Key] += V;
  Events += O.Events;
  Dropped += O.Dropped;
  Parsed += O.Parsed;
  RootNs += O.RootNs;
  RootThreadSelfNs += O.RootThreadSelfNs;
  AllThreadsSelfNs += O.AllThreadsSelfNs;
  Threads = std::max(Threads, O.Threads);
}

double TraceSummary::familySelfMs(const std::string &F) const {
  auto It = Families.find(F);
  return It == Families.end() ? 0 : It->second.SelfNs / 1e6;
}

double TraceSummary::familyInclMs(const std::string &F) const {
  auto It = Families.find(F);
  return It == Families.end() ? 0 : It->second.InclNs / 1e6;
}

uint64_t TraceSummary::familyCalls(const std::string &F) const {
  auto It = Families.find(F);
  return It == Families.end() ? 0 : It->second.Calls;
}

int64_t TraceSummary::argSum(const std::string &Key) const {
  auto It = ArgSums.find(Key);
  return It == ArgSums.end() ? 0 : It->second;
}

std::string formatTraceReport(const TraceSummary &S, unsigned Iterations) {
  double N = Iterations ? Iterations : 1;
  std::string Out;
  char Buf[256];
  std::snprintf(Buf, sizeof Buf, "%-18s %12s %12s %12s\n", "span family",
                "self ms", "incl ms", "calls");
  Out += Buf;
  // Largest self time first: the report reads as "where the time went".
  std::vector<std::pair<std::string, FamilyStats>> Rows(S.Families.begin(),
                                                        S.Families.end());
  std::stable_sort(Rows.begin(), Rows.end(), [](const auto &A, const auto &B) {
    return A.second.SelfNs > B.second.SelfNs;
  });
  for (const auto &[Name, F] : Rows) {
    std::snprintf(Buf, sizeof Buf, "%-18s %12.3f %12.3f %12.1f\n",
                  Name.c_str(), F.SelfNs / 1e6 / N, F.InclNs / 1e6 / N,
                  F.Calls / N);
    Out += Buf;
  }
  std::snprintf(Buf, sizeof Buf,
                "per iteration: root-thread self sum %.3f ms = iteration "
                "wall %.3f ms; all %u threads' self sum %.3f ms (%.2fx "
                "wall)\n",
                S.RootThreadSelfNs / 1e6 / N, S.RootNs / 1e6 / N, S.Threads,
                S.AllThreadsSelfNs / 1e6 / N,
                S.RootNs ? static_cast<double>(S.AllThreadsSelfNs) / S.RootNs
                         : 0.0);
  Out += Buf;
  return Out;
}

} // namespace perfbench
