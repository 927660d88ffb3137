#include "models/models.hpp"

#include "util/require.hpp"

namespace cbip::models {

namespace {

using expr::Assign;
using expr::VarRef;

AtomicTypePtr makeFork() {
  auto t = std::make_shared<AtomicType>("Fork");
  const int free = t->addLocation("free");
  const int taken = t->addLocation("taken");
  const int use = t->addPort("use");
  const int release = t->addPort("release");
  t->addTransition(free, use, taken);
  t->addTransition(taken, release, free);
  t->setInitialLocation(free);
  return t;
}

AtomicTypePtr makePhilosopherAtomic(bool counters) {
  auto t = std::make_shared<AtomicType>("Philosopher");
  const int thinking = t->addLocation("thinking");
  const int eating = t->addLocation("eating");
  const int eat = t->addPort("eat");
  const int done = t->addPort("done");
  std::vector<Assign> eatActions;
  if (counters) {
    const int meals = t->addVariable("meals", 0);
    eatActions.push_back(Assign{VarRef{0, meals}, Expr::local(meals) + Expr::lit(1)});
  }
  t->addTransition(thinking, eat, Expr::top(), std::move(eatActions), eating);
  t->addTransition(eating, done, thinking);
  t->setInitialLocation(thinking);
  return t;
}

AtomicTypePtr makePhilosopherTwoStep(bool counters) {
  auto t = std::make_shared<AtomicType>("Philosopher2");
  const int thinking = t->addLocation("thinking");
  const int hasLeft = t->addLocation("hasLeft");
  const int eating = t->addLocation("eating");
  const int takeL = t->addPort("takeL");
  const int takeR = t->addPort("takeR");
  const int done = t->addPort("done");
  std::vector<Assign> eatActions;
  if (counters) {
    const int meals = t->addVariable("meals", 0);
    eatActions.push_back(Assign{VarRef{0, meals}, Expr::local(meals) + Expr::lit(1)});
  }
  t->addTransition(thinking, takeL, hasLeft);
  t->addTransition(hasLeft, takeR, Expr::top(), std::move(eatActions), eating);
  t->addTransition(eating, done, thinking);
  t->setInitialLocation(thinking);
  return t;
}

}  // namespace

System philosophersAtomic(int n, bool counters) {
  require(n >= 2, "philosophersAtomic: need n >= 2");
  System sys;
  auto phil = makePhilosopherAtomic(counters);
  auto fork = makeFork();
  for (int i = 0; i < n; ++i) sys.addInstance("p" + std::to_string(i), phil);
  for (int i = 0; i < n; ++i) sys.addInstance("f" + std::to_string(i), fork);
  const int eat = phil->portIndex("eat");
  const int done = phil->portIndex("done");
  const int use = fork->portIndex("use");
  const int release = fork->portIndex("release");
  for (int i = 0; i < n; ++i) {
    const int left = n + i;
    const int right = n + (i + 1) % n;
    sys.addConnector(rendezvous("eat" + std::to_string(i),
                                {PortRef{i, eat}, PortRef{left, use}, PortRef{right, use}}));
    sys.addConnector(
        rendezvous("rel" + std::to_string(i),
                   {PortRef{i, done}, PortRef{left, release}, PortRef{right, release}}));
  }
  sys.validate();
  return sys;
}

System philosophersTwoStep(int n, bool counters) {
  require(n >= 2, "philosophersTwoStep: need n >= 2");
  System sys;
  auto phil = makePhilosopherTwoStep(counters);
  auto fork = makeFork();
  for (int i = 0; i < n; ++i) sys.addInstance("p" + std::to_string(i), phil);
  for (int i = 0; i < n; ++i) sys.addInstance("f" + std::to_string(i), fork);
  const int takeL = phil->portIndex("takeL");
  const int takeR = phil->portIndex("takeR");
  const int done = phil->portIndex("done");
  const int use = fork->portIndex("use");
  const int release = fork->portIndex("release");
  for (int i = 0; i < n; ++i) {
    const int left = n + i;
    const int right = n + (i + 1) % n;
    sys.addConnector(
        rendezvous("takeL" + std::to_string(i), {PortRef{i, takeL}, PortRef{left, use}}));
    sys.addConnector(
        rendezvous("takeR" + std::to_string(i), {PortRef{i, takeR}, PortRef{right, use}}));
    sys.addConnector(
        rendezvous("rel" + std::to_string(i),
                   {PortRef{i, done}, PortRef{left, release}, PortRef{right, release}}));
  }
  sys.validate();
  return sys;
}

System gasStation(int pumps, int customers, bool counters) {
  require(pumps >= 1 && customers >= 1, "gasStation: need pumps >= 1 and customers >= 1");
  System sys;

  auto op = std::make_shared<AtomicType>("Operator");
  {
    const int idle = op->addLocation("idle");
    const int prepay = op->addPort("prepay");
    op->addTransition(idle, prepay, idle);
    op->setInitialLocation(idle);
  }
  auto cust = std::make_shared<AtomicType>("Customer");
  {
    const int idle = cust->addLocation("idle");
    const int paid = cust->addLocation("paid");
    const int pumping = cust->addLocation("pumping");
    const int myPump = cust->addVariable("pump", -1);
    const int pay = cust->addPort("pay");
    const int start = cust->addPort("start", {myPump});
    const int finish = cust->addPort("finish", {myPump});
    std::vector<Assign> finishActions;
    if (counters) {
      const int served = cust->addVariable("served", 0);
      finishActions.push_back(
          Assign{VarRef{0, served}, Expr::local(served) + Expr::lit(1)});
    }
    cust->addTransition(idle, pay, paid);
    cust->addTransition(paid, start, pumping);
    cust->addTransition(pumping, finish, Expr::top(), std::move(finishActions), idle);
    cust->setInitialLocation(idle);
  }

  const int opIdx = sys.addInstance("op", op);
  std::vector<int> pumpIdx;
  for (int p = 0; p < pumps; ++p) {
    // Each pump instance carries its identity in `id`, so each gets its
    // own type with a distinct initial value.
    auto t = std::make_shared<AtomicType>("Pump" + std::to_string(p));
    const int free = t->addLocation("free");
    const int inuse = t->addLocation("inuse");
    const int id = t->addVariable("id", p);
    const int start = t->addPort("start", {id});
    const int finish = t->addPort("finish", {id});
    t->addTransition(free, start, inuse);
    t->addTransition(inuse, finish, free);
    t->setInitialLocation(free);
    pumpIdx.push_back(sys.addInstance("pump" + std::to_string(p), t));
  }
  std::vector<int> custIdx;
  for (int c = 0; c < customers; ++c) {
    custIdx.push_back(sys.addInstance("c" + std::to_string(c), cust));
  }

  const int cPay = cust->portIndex("pay");
  const int cStart = cust->portIndex("start");
  const int cFinish = cust->portIndex("finish");
  for (int c = 0; c < customers; ++c) {
    sys.addConnector(rendezvous("pay" + std::to_string(c),
                                {PortRef{opIdx, 0}, PortRef{custIdx[c], cPay}}));
    for (int p = 0; p < pumps; ++p) {
      // start: the customer records which pump it grabbed.
      Connector startC("start_c" + std::to_string(c) + "_p" + std::to_string(p));
      const int eCust = startC.addSynchron(PortRef{custIdx[c], cStart});
      const int ePump = startC.addSynchron(
          PortRef{pumpIdx[p], sys.instance(static_cast<std::size_t>(pumpIdx[p]))
                                   .type->portIndex("start")});
      startC.addDown(eCust, 0, Expr::var(ePump, 0));  // c.pump := p.id
      sys.addConnector(std::move(startC));
      // finish: only at the recorded pump.
      Connector finC("finish_c" + std::to_string(c) + "_p" + std::to_string(p));
      const int eCust2 = finC.addSynchron(PortRef{custIdx[c], cFinish});
      const int ePump2 = finC.addSynchron(
          PortRef{pumpIdx[p], sys.instance(static_cast<std::size_t>(pumpIdx[p]))
                                   .type->portIndex("finish")});
      finC.setGuard(Expr::var(eCust2, 0) == Expr::var(ePump2, 0));
      sys.addConnector(std::move(finC));
    }
  }
  sys.validate();
  return sys;
}

System producerConsumer(int capacity) {
  require(capacity >= 1, "producerConsumer: capacity must be >= 1");
  System sys;

  auto producer = std::make_shared<AtomicType>("Producer");
  {
    const int run = producer->addLocation("run");
    const int next = producer->addVariable("next", 0);
    const int put = producer->addPort("put", {next});
    producer->addTransition(run, put, Expr::top(),
                            {Assign{VarRef{0, next}, Expr::local(next) + Expr::lit(1)}}, run);
    producer->setInitialLocation(run);
  }

  auto buffer = std::make_shared<AtomicType>("Buffer");
  {
    const int b = buffer->addLocation("b");
    const int in = buffer->addVariable("in", 0);
    const int out = buffer->addVariable("out", 0);
    const int count = buffer->addVariable("count", 0);
    std::vector<int> slots;
    for (int i = 0; i < capacity; ++i) {
      slots.push_back(buffer->addVariable("slot" + std::to_string(i), 0));
    }
    const int put = buffer->addPort("put", {in});
    const int get = buffer->addPort("get", {out});
    // put: store `in` at position `count`; keep `out` = head.
    std::vector<Assign> putActions;
    for (int i = 0; i < capacity; ++i) {
      putActions.push_back(Assign{
          VarRef{0, slots[static_cast<std::size_t>(i)]},
          Expr::ite(Expr::local(count) == Expr::lit(i), Expr::local(in),
                    Expr::local(slots[static_cast<std::size_t>(i)]))});
    }
    putActions.push_back(Assign{
        VarRef{0, out},
        Expr::ite(Expr::local(count) == Expr::lit(0), Expr::local(in), Expr::local(out))});
    putActions.push_back(Assign{VarRef{0, count}, Expr::local(count) + Expr::lit(1)});
    buffer->addTransition(b, put, Expr::local(count) < Expr::lit(capacity),
                          std::move(putActions), b);
    // get: shift left; maintain out = new head.
    std::vector<Assign> getActions;
    for (int i = 0; i + 1 < capacity; ++i) {
      getActions.push_back(Assign{VarRef{0, slots[static_cast<std::size_t>(i)]},
                                  Expr::local(slots[static_cast<std::size_t>(i + 1)])});
    }
    getActions.push_back(Assign{VarRef{0, count}, Expr::local(count) - Expr::lit(1)});
    getActions.push_back(Assign{VarRef{0, out}, Expr::local(slots[0])});
    buffer->addTransition(b, get, Expr::local(count) > Expr::lit(0), std::move(getActions), b);
    buffer->setInitialLocation(b);
  }

  auto consumer = std::make_shared<AtomicType>("Consumer");
  {
    const int run = consumer->addLocation("run");
    const int got = consumer->addVariable("got", 0);
    const int sum = consumer->addVariable("sum", 0);
    const int items = consumer->addVariable("items", 0);
    const int take = consumer->addPort("take", {got});
    consumer->addTransition(
        run, take, Expr::top(),
        {Assign{VarRef{0, sum}, Expr::local(sum) + Expr::local(got)},
         Assign{VarRef{0, items}, Expr::local(items) + Expr::lit(1)}},
        run);
    consumer->setInitialLocation(run);
  }

  const int prod = sys.addInstance("producer", producer);
  const int buf = sys.addInstance("buffer", buffer);
  const int cons = sys.addInstance("consumer", consumer);

  Connector putC("put");
  const int eProd = putC.addSynchron(PortRef{prod, producer->portIndex("put")});
  const int eBufIn = putC.addSynchron(PortRef{buf, buffer->portIndex("put")});
  putC.addDown(eBufIn, 0, Expr::var(eProd, 0));  // buffer.in := producer.next
  sys.addConnector(std::move(putC));

  Connector getC("get");
  const int eBufOut = getC.addSynchron(PortRef{buf, buffer->portIndex("get")});
  const int eCons = getC.addSynchron(PortRef{cons, consumer->portIndex("take")});
  getC.addDown(eCons, 0, Expr::var(eBufOut, 0));  // consumer.got := buffer.out
  sys.addConnector(std::move(getC));

  sys.validate();
  return sys;
}

System producerConsumerBounded(int capacity, int modulo) {
  require(capacity >= 1, "producerConsumerBounded: capacity must be >= 1");
  require(modulo >= 1, "producerConsumerBounded: modulo must be >= 1");
  System sys;

  auto producer = std::make_shared<AtomicType>("Producer");
  {
    const int run = producer->addLocation("run");
    const int next = producer->addVariable("next", 0);
    const int put = producer->addPort("put", {next});
    producer->addTransition(
        run, put, Expr::top(),
        {Assign{VarRef{0, next}, (Expr::local(next) + Expr::lit(1)) % Expr::lit(modulo)}},
        run);
    producer->setInitialLocation(run);
  }

  auto buffer = std::make_shared<AtomicType>("Buffer");
  {
    const int b = buffer->addLocation("b");
    const int in = buffer->addVariable("in", 0);
    const int out = buffer->addVariable("out", 0);
    const int count = buffer->addVariable("count", 0);
    std::vector<int> slots;
    for (int i = 0; i < capacity; ++i) {
      slots.push_back(buffer->addVariable("slot" + std::to_string(i), 0));
    }
    const int put = buffer->addPort("put", {in});
    const int get = buffer->addPort("get", {out});
    std::vector<Assign> putActions;
    for (int i = 0; i < capacity; ++i) {
      putActions.push_back(Assign{
          VarRef{0, slots[static_cast<std::size_t>(i)]},
          Expr::ite(Expr::local(count) == Expr::lit(i), Expr::local(in),
                    Expr::local(slots[static_cast<std::size_t>(i)]))});
    }
    putActions.push_back(Assign{
        VarRef{0, out},
        Expr::ite(Expr::local(count) == Expr::lit(0), Expr::local(in), Expr::local(out))});
    putActions.push_back(Assign{VarRef{0, count}, Expr::local(count) + Expr::lit(1)});
    buffer->addTransition(b, put, Expr::local(count) < Expr::lit(capacity),
                          std::move(putActions), b);
    std::vector<Assign> getActions;
    for (int i = 0; i + 1 < capacity; ++i) {
      getActions.push_back(Assign{VarRef{0, slots[static_cast<std::size_t>(i)]},
                                  Expr::local(slots[static_cast<std::size_t>(i + 1)])});
    }
    if (capacity > 1) {
      getActions.push_back(
          Assign{VarRef{0, slots[static_cast<std::size_t>(capacity - 1)]}, Expr::lit(0)});
    }
    getActions.push_back(Assign{VarRef{0, count}, Expr::local(count) - Expr::lit(1)});
    getActions.push_back(Assign{VarRef{0, out}, Expr::local(slots[0])});
    buffer->addTransition(b, get, Expr::local(count) > Expr::lit(0), std::move(getActions), b);
    buffer->setInitialLocation(b);
  }

  auto consumer = std::make_shared<AtomicType>("Consumer");
  {
    const int run = consumer->addLocation("run");
    const int got = consumer->addVariable("got", 0);
    const int take = consumer->addPort("take", {got});
    consumer->addTransition(run, take, run);
    consumer->setInitialLocation(run);
  }

  const int prod = sys.addInstance("producer", producer);
  const int buf = sys.addInstance("buffer", buffer);
  const int cons = sys.addInstance("consumer", consumer);

  Connector putC("put");
  const int eProd = putC.addSynchron(PortRef{prod, producer->portIndex("put")});
  const int eBufIn = putC.addSynchron(PortRef{buf, buffer->portIndex("put")});
  putC.addDown(eBufIn, 0, Expr::var(eProd, 0));
  sys.addConnector(std::move(putC));

  Connector getC("get");
  const int eBufOut = getC.addSynchron(PortRef{buf, buffer->portIndex("get")});
  const int eCons = getC.addSynchron(PortRef{cons, consumer->portIndex("take")});
  getC.addDown(eCons, 0, Expr::var(eBufOut, 0));
  sys.addConnector(std::move(getC));

  sys.validate();
  return sys;
}

namespace {

AtomicTypePtr makeStation(bool withToken, bool counters) {
  auto t = std::make_shared<AtomicType>(withToken ? "StationT" : "Station");
  const int noTok = t->addLocation("idleNoToken");
  const int tok = t->addLocation("idleToken");
  const int crit = t->addLocation("crit");
  const int enter = t->addPort("enter");
  const int exit = t->addPort("exit");
  const int recv = t->addPort("recv");
  const int send = t->addPort("send");
  std::vector<Assign> enterActions;
  if (counters) {
    const int entries = t->addVariable("entries", 0);
    enterActions.push_back(
        Assign{VarRef{0, entries}, Expr::local(entries) + Expr::lit(1)});
  }
  t->addTransition(tok, enter, Expr::top(), std::move(enterActions), crit);
  t->addTransition(crit, exit, tok);
  t->addTransition(tok, send, noTok);
  t->addTransition(noTok, recv, tok);
  t->setInitialLocation(withToken ? tok : noTok);
  return t;
}

}  // namespace

System tokenRing(int n, bool counters) {
  require(n >= 2, "tokenRing: need n >= 2");
  System sys;
  auto first = makeStation(true, counters);
  auto rest = makeStation(false, counters);
  for (int i = 0; i < n; ++i) {
    sys.addInstance("s" + std::to_string(i), i == 0 ? first : rest);
  }
  const int enter = rest->portIndex("enter");
  const int exit = rest->portIndex("exit");
  const int recv = rest->portIndex("recv");
  const int send = rest->portIndex("send");
  for (int i = 0; i < n; ++i) {
    sys.addConnector(rendezvous("pass" + std::to_string(i),
                                {PortRef{i, send}, PortRef{(i + 1) % n, recv}}));
    sys.addConnector(rendezvous("enter" + std::to_string(i), {PortRef{i, enter}}));
    sys.addConnector(rendezvous("exit" + std::to_string(i), {PortRef{i, exit}}));
  }
  sys.validate();
  return sys;
}

System gcdSystem(Value x0, Value y0) {
  require(x0 > 0 && y0 > 0, "gcdSystem: inputs must be positive");
  System sys;
  auto t = std::make_shared<AtomicType>("Gcd");
  const int run = t->addLocation("run");
  const int x = t->addVariable("x", x0);
  const int y = t->addVariable("y", y0);
  const int done = t->addPort("done", {x});
  // Internal steps: the Euclid iteration.
  t->addTransition(run, kInternalPort, Expr::local(x) > Expr::local(y),
                   {Assign{VarRef{0, x}, Expr::local(x) - Expr::local(y)}}, run);
  t->addTransition(run, kInternalPort, Expr::local(y) > Expr::local(x),
                   {Assign{VarRef{0, y}, Expr::local(y) - Expr::local(x)}}, run);
  // Observable completion once x == y.
  t->addTransition(run, done, Expr::local(x) == Expr::local(y), {}, run);
  t->setInitialLocation(run);
  const int inst = sys.addInstance("gcd", t);
  sys.addConnector(rendezvous("done", {PortRef{inst, t->portIndex("done")}}));
  sys.validate();
  return sys;
}

System skewedPairs(int pairs, int hotPairs, Value coldBudget) {
  require(pairs >= 1, "skewedPairs: need pairs >= 1");
  require(hotPairs >= 0 && hotPairs <= pairs, "skewedPairs: need 0 <= hotPairs <= pairs");
  require(coldBudget >= 0, "skewedPairs: coldBudget must be >= 0");
  System sys;

  auto worker = std::make_shared<AtomicType>("PairWorker");
  {
    const int idle = worker->addLocation("idle");
    const int tick = worker->addPort("tick");
    worker->addTransition(idle, tick, idle);
    worker->setInitialLocation(idle);
  }

  // One mate type per budget class so every instance shares the two
  // compiled transition programs: the budget is a per-instance variable,
  // the guard/action programs are per-type.
  const auto makeMate = [](const char* name, Value budget0) {
    auto t = std::make_shared<AtomicType>(name);
    const int idle = t->addLocation("idle");
    const int budget = t->addVariable("budget", budget0);
    const int tick = t->addPort("tick");
    t->addTransition(idle, tick, Expr::local(budget) != Expr::lit(0),
                     {Assign{VarRef{0, budget}, Expr::local(budget) - Expr::lit(1)}}, idle);
    t->setInitialLocation(idle);
    return t;
  };
  auto hotMate = makeMate("HotMate", -1);  // never reaches zero
  auto coldMate = makeMate("ColdMate", coldBudget);

  for (int i = 0; i < pairs; ++i) {
    const AtomicTypePtr& mate = i < hotPairs ? hotMate : coldMate;
    const int w = sys.addInstance("w" + std::to_string(i), worker);
    const int m = sys.addInstance("m" + std::to_string(i), mate);
    sys.addConnector(rendezvous("sync" + std::to_string(i),
                                {PortRef{w, worker->portIndex("tick")},
                                 PortRef{m, mate->portIndex("tick")}}));
  }
  sys.validate();
  return sys;
}

bool tokenRingMutex(const System& system, const GlobalState& state) {
  int inCrit = 0;
  for (std::size_t i = 0; i < system.instanceCount(); ++i) {
    const System::Instance& inst = system.instance(i);
    const auto crit = inst.type->findLocation("crit");
    if (crit.has_value() && state.components[i].location == *crit) ++inCrit;
  }
  return inCrit <= 1;
}

}  // namespace cbip::models
