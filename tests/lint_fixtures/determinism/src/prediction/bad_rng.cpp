#include <chrono>
#include <cstdlib>
#include <map>
#include <random>
#include <unordered_map>

struct Obs {};

// Fixture: every banned entropy source, one per line (11-14).
double bad_entropy() {
  std::srand(42);
  double x = static_cast<double>(std::rand());
  std::random_device rd;
  auto t = std::chrono::system_clock::now();
  (void)t;
  return x + static_cast<double>(rd());
}

// Fixture: an address-keyed map (line 22) and iteration over an
// unordered container in a reduce (declared line 23, iterated line 25).
double bad_reduce() {
  std::map<const Obs*, double> weights;
  std::unordered_map<int, double> scores;
  double sum = 0.0;
  for (const auto& entry : scores) sum += entry.second;
  return sum + static_cast<double>(weights.size());
}

// Fixture: <random> engines and distributions, one per line (33-39). The
// match is whole-token, so stationary_distribution (line 40) stays legal.
double stationary_distribution(double rate);
double bad_distributions() {
  std::mt19937 a(1);
  std::mt19937_64 b(2);
  std::default_random_engine c(3);
  std::minstd_rand d(4);
  std::poisson_distribution<int> arrivals(4.0);
  std::normal_distribution<double> noise(0.0, 1.0);
  std::uniform_int_distribution<int> pick(0, 9);
  const double pi = stationary_distribution(1.0);
  return arrivals(a) + noise(b) + pick(c) + static_cast<double>(d()) + pi;
}
